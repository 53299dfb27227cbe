//! The partition forest: static kd-partition trees under Overmars'
//! logarithmic dynamization.

use mobidx_geom::{Aabb, QueryRegion, Relation};
use mobidx_pager::{
    page_capacity, PageId, PageStore, Store, DEFAULT_BUFFER_PAGES, DEFAULT_PAGE_SIZE, PAGER_FAULT,
};
use std::fmt::Debug;

/// Sizing parameters of a partition forest.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Maximum points per data page.
    pub leaf_cap: usize,
    /// Partition size `r` per internal node (= max children per page).
    pub fanout: usize,
    /// Buffer-pool pages.
    pub buffer_pages: usize,
}

impl PartitionConfig {
    /// Paper-style capacities for dimension `D`: data entries are
    /// `4·D + 4` bytes (float coords + pointer), internal entries are a
    /// cell box + pointer (`8·D + 4` bytes), on 4096-byte pages.
    #[must_use]
    pub fn paper_default(dims: usize) -> Self {
        Self {
            leaf_cap: page_capacity(DEFAULT_PAGE_SIZE, 4 * dims + 4),
            fanout: page_capacity(DEFAULT_PAGE_SIZE, 8 * dims + 4),
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }

    /// Small-page configuration for tests.
    #[must_use]
    pub fn small(leaf_cap: usize, fanout: usize) -> Self {
        Self {
            leaf_cap,
            fanout,
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }
}

/// One page of a static partition tree.
#[derive(Debug, Clone)]
enum PtPage<const D: usize, T> {
    /// Internal node: disjoint cells (group bounding boxes) and children.
    Internal(Vec<(Aabb<D>, PageId)>),
    /// Data page.
    Leaf(Vec<([f64; D], T)>),
}

/// A static tree in the forest.
#[derive(Debug, Clone, Copy)]
struct TreeSlot {
    root: PageId,
    /// Live points (decremented by weak deletes).
    live: usize,
}

/// A dynamic external-memory partition tree (see crate docs).
///
/// It has no fallible API: a fault its page store reports panics with
/// [`PAGER_FAULT`], the message of the infallible index layer it serves.
#[derive(Debug)]
pub struct PartitionForest<const D: usize, T: Copy + PartialEq + Debug> {
    store: PageStore<PtPage<D, T>>,
    /// `slots[i]` holds a tree built from at most `2^i` points.
    slots: Vec<Option<TreeSlot>>,
    len: usize,
    weak_deleted: usize,
    cfg: PartitionConfig,
}

impl<const D: usize, T: Copy + PartialEq + Debug> PartitionForest<D, T> {
    /// Creates an empty forest.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    #[must_use]
    pub fn new(cfg: PartitionConfig) -> Self {
        assert!(cfg.leaf_cap >= 2, "leaf capacity must be at least 2");
        assert!(cfg.fanout >= 2, "fanout must be at least 2");
        Self {
            store: PageStore::new(cfg.buffer_pages),
            slots: Vec::new(),
            len: 0,
            weak_deleted: 0,
            cfg,
        }
    }

    /// Number of live points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the forest is empty.
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

    /// Live pages.
    #[must_use]
    pub fn live_pages(&self) -> u64 {
        self.store.live_pages()
    }

    /// Inserts a point (binary-counter merge of the low slots).
    pub fn insert(&mut self, point: [f64; D], payload: T) {
        let mut carry = vec![(point, payload)];
        let mut j = 0usize;
        while j < self.slots.len() && self.slots[j].is_some() {
            let slot = self.slots[j].take().expect("checked occupancy");
            self.collect_tree(slot.root, &mut carry);
            j += 1;
        }
        if j == self.slots.len() {
            self.slots.push(None);
        }
        let live = carry.len();
        let root = self.build(carry, 0);
        self.slots[j] = Some(TreeSlot { root, live });
        self.len += 1;
    }

    /// Weak-deletes the exact `(point, payload)` pair. Returns whether it
    /// was present.
    pub fn remove(&mut self, point: [f64; D], payload: T) -> bool {
        for i in 0..self.slots.len() {
            let Some(slot) = self.slots[i] else { continue };
            if self.remove_from_tree(slot.root, &point, &payload) {
                let s = self.slots[i].as_mut().expect("slot vanished");
                s.live -= 1;
                if s.live == 0 {
                    let root = s.root;
                    self.free_tree(root);
                    self.slots[i] = None;
                }
                self.len -= 1;
                self.weak_deleted += 1;
                if self.weak_deleted > self.len.max(1) {
                    self.rebuild_all();
                }
                return true;
            }
        }
        false
    }

    /// Visits every live point inside `region`.
    pub fn query<Q: QueryRegion<D>>(&mut self, region: &Q, mut visit: impl FnMut(&[f64; D], T)) {
        let roots: Vec<PageId> = self.slots.iter().flatten().map(|s| s.root).collect();
        let mut stack: Vec<(PageId, bool)> = roots.into_iter().map(|r| (r, false)).collect();
        while let Some((pid, contained)) = stack.pop() {
            match self.store.try_read(pid).expect(PAGER_FAULT) {
                PtPage::Leaf(points) => {
                    for &(p, t) in points {
                        if contained || region.contains_point(&p) {
                            visit(&p, t);
                        }
                    }
                }
                PtPage::Internal(cells) => {
                    let pushes: Vec<(PageId, bool)> = cells
                        .iter()
                        .filter_map(|(cell, child)| {
                            if contained {
                                return Some((*child, true));
                            }
                            match region.cell_relation(cell) {
                                Relation::Disjoint => None,
                                Relation::Contains => Some((*child, true)),
                                Relation::Overlaps => Some((*child, false)),
                            }
                        })
                        .collect();
                    stack.extend(pushes);
                }
            }
        }
    }

    /// Reports matching points as a vector.
    pub fn query_collect<Q: QueryRegion<D>>(&mut self, region: &Q) -> Vec<([f64; D], T)> {
        let mut out = Vec::new();
        self.query(region, |p, t| out.push((*p, t)));
        out
    }

    /// All live points (uncounted; tests/audits).
    #[must_use]
    pub fn collect_all(&self) -> Vec<([f64; D], T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack: Vec<PageId> = self.slots.iter().flatten().map(|s| s.root).collect();
        while let Some(pid) = stack.pop() {
            match self.store.peek(pid) {
                PtPage::Leaf(points) => out.extend_from_slice(points),
                PtPage::Internal(cells) => stack.extend(cells.iter().map(|&(_, c)| c)),
            }
        }
        out
    }

    /// Verifies structural invariants (uncounted).
    ///
    /// # Panics
    /// Panics describing the first violated invariant.
    pub fn check_invariants(&self) {
        let mut total = 0usize;
        for slot in self.slots.iter().flatten() {
            let mut count = 0usize;
            self.check_page(slot.root, None, &mut count);
            assert_eq!(count, slot.live, "slot live count mismatch");
            total += count;
        }
        assert_eq!(total, self.len, "forest len mismatch");
    }

    fn check_page(&self, pid: PageId, cell: Option<&Aabb<D>>, count: &mut usize) {
        match self.store.peek(pid) {
            PtPage::Leaf(points) => {
                assert!(points.len() <= self.cfg.leaf_cap, "overfull data page");
                if let Some(cell) = cell {
                    for (p, _) in points {
                        assert!(cell.contains(p), "point {p:?} escapes its cell");
                    }
                }
                *count += points.len();
            }
            PtPage::Internal(cells) => {
                assert!(
                    cells.len() <= self.cfg.fanout,
                    "internal fan-out {} exceeds {}",
                    cells.len(),
                    self.cfg.fanout
                );
                assert!(cells.len() >= 2, "trivial internal node");
                for (child_cell, child) in cells.clone() {
                    if let Some(cell) = cell {
                        assert!(
                            cell.contains_box(&child_cell),
                            "child cell escapes parent cell"
                        );
                    }
                    self.check_page(child, Some(&child_cell), count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Static tree construction
    // ------------------------------------------------------------------

    /// Builds a static kd-partition tree; returns its root page.
    fn build(&mut self, mut points: Vec<([f64; D], T)>, depth: usize) -> PageId {
        if points.len() <= self.cfg.leaf_cap {
            return self
                .store
                .try_allocate(PtPage::Leaf(points))
                .expect(PAGER_FAULT);
        }
        // Partition into about `fanout` groups (fewer if the set is
        // small) via recursive median cuts with alternating axes.
        let groups_wanted = self
            .cfg
            .fanout
            .min(points.len().div_ceil(self.cfg.leaf_cap))
            .max(2);
        let mut groups: Vec<Vec<([f64; D], T)>> = Vec::with_capacity(groups_wanted);
        kd_partition(&mut points, groups_wanted, depth % D, &mut groups);
        let cells: Vec<(Aabb<D>, PageId)> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                let cell = bbox_of(&g);
                let child = self.build(g, depth + 1);
                (cell, child)
            })
            .collect();
        debug_assert!(cells.len() >= 2, "partition produced a trivial node");
        self.store
            .try_allocate(PtPage::Internal(cells))
            .expect(PAGER_FAULT)
    }

    /// Reads all points of a tree (counted I/O — rebuild cost is real)
    /// and frees its pages.
    fn collect_tree(&mut self, root: PageId, out: &mut Vec<([f64; D], T)>) {
        let mut stack = vec![root];
        while let Some(pid) = stack.pop() {
            match self.store.try_read(pid).expect(PAGER_FAULT) {
                PtPage::Leaf(points) => out.extend_from_slice(points),
                PtPage::Internal(cells) => stack.extend(cells.iter().map(|&(_, c)| c)),
            }
            let _ = self.store.try_free(pid).expect(PAGER_FAULT);
        }
    }

    /// Frees a tree without reading its contents.
    fn free_tree(&mut self, root: PageId) {
        let mut stack = vec![root];
        while let Some(pid) = stack.pop() {
            if let PtPage::Internal(cells) = self.store.try_read(pid).expect(PAGER_FAULT) {
                stack.extend(cells.iter().map(|&(_, c)| c));
            }
            let _ = self.store.try_free(pid).expect(PAGER_FAULT);
        }
    }

    /// Weak delete within one static tree: descend every child cell
    /// containing the point (cells are disjoint up to shared boundaries).
    fn remove_from_tree(&mut self, root: PageId, point: &[f64; D], payload: &T) -> bool {
        let mut stack = vec![root];
        while let Some(pid) = stack.pop() {
            let found = self
                .store
                .try_write(pid, |page| match page {
                    PtPage::Leaf(points) => {
                        match points.iter().position(|(p, t)| p == point && t == payload) {
                            Some(pos) => {
                                points.swap_remove(pos);
                                Some(true)
                            }
                            None => Some(false),
                        }
                    }
                    PtPage::Internal(_) => None,
                })
                .expect(PAGER_FAULT);
            match found {
                Some(true) => return true,
                Some(false) => continue,
                None => {
                    if let PtPage::Internal(cells) = self.store.try_read(pid).expect(PAGER_FAULT) {
                        stack.extend(
                            cells
                                .iter()
                                .filter(|(cell, _)| cell.contains(point))
                                .map(|&(_, c)| c),
                        );
                    }
                }
            }
        }
        false
    }

    /// Global rebuild once weak deletes dominate.
    fn rebuild_all(&mut self) {
        let mut all: Vec<([f64; D], T)> = Vec::with_capacity(self.len);
        let roots: Vec<PageId> = self.slots.iter().flatten().map(|s| s.root).collect();
        for root in roots {
            self.collect_tree(root, &mut all);
        }
        self.slots.clear();
        self.weak_deleted = 0;
        self.len = all.len();
        if all.is_empty() {
            return;
        }
        let slot_idx = usize::BITS as usize - (all.len().leading_zeros() as usize) - 1;
        // Capacity of slot i is 2^i; put everything in the first slot
        // that fits.
        let slot_idx = if all.len() > (1usize << slot_idx) {
            slot_idx + 1
        } else {
            slot_idx
        };
        self.slots.resize(slot_idx + 1, None);
        let live = all.len();
        let root = self.build(all, 0);
        self.slots[slot_idx] = Some(TreeSlot { root, live });
    }
}

/// Splits `points` into `groups` contiguous kd-groups of near-equal size,
/// cutting at medians and cycling the axis per recursion level.
fn kd_partition<const D: usize, T: Copy>(
    points: &mut [([f64; D], T)],
    groups: usize,
    axis: usize,
    out: &mut Vec<Vec<([f64; D], T)>>,
) {
    if groups <= 1 || points.len() <= 1 {
        out.push(points.to_vec());
        return;
    }
    let left_groups = groups / 2;
    let cut = points.len() * left_groups / groups;
    let cut = cut.clamp(1, points.len() - 1);
    points.select_nth_unstable_by(cut, |a, b| {
        a.0[axis].partial_cmp(&b.0[axis]).expect("NaN coordinate")
    });
    let (left, right) = points.split_at_mut(cut);
    let next = (axis + 1) % D;
    kd_partition(left, left_groups, next, out);
    kd_partition(right, groups - left_groups, next, out);
}

fn bbox_of<const D: usize, T>(points: &[([f64; D], T)]) -> Aabb<D> {
    let mut b = Aabb::empty();
    for (p, _) in points {
        b.extend(*p);
    }
    b
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

    #[test]
    fn box_query_matches_naive() {
        let pts = pseudo_points(1500, 3);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(8, 8));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        f.check_invariants();
        for q in pseudo_points(15, 77) {
            let qbox = Aabb::new([q[0], q[1]], [q[0] + 300.0, q[1] + 300.0]);
            let mut got: Vec<u64> = f.query_collect(&qbox).into_iter().map(|(_, v)| v).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| qbox.contains(p))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn simplex_query_matches_naive() {
        let pts = pseudo_points(1200, 5);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(8, 8));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        let wedge = ConvexPolygon::new(vec![
            HalfPlane::new(-0.5, 1.0, 200.0), // y <= 0.5 x + 200
            HalfPlane::new(0.5, -1.0, 100.0), // y >= 0.5 x - 100
            HalfPlane::x_ge(100.0),
            HalfPlane::x_le(700.0),
        ]);
        let mut got: Vec<u64> = f
            .query_collect(&wedge)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| QueryRegion::<2>::contains_point(&wedge, &[p[0], p[1]]))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn weak_delete_then_query() {
        let pts = pseudo_points(900, 7);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(8, 8));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        for (i, &p) in pts.iter().enumerate() {
            if i % 4 == 0 {
                assert!(f.remove(p, i as u64), "missing {i}");
            }
        }
        f.check_invariants();
        let everything = Aabb::new([-1e9, -1e9], [1e9, 1e9]);
        let mut got: Vec<u64> = f
            .query_collect(&everything)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..900u64).filter(|i| i % 4 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn heavy_deletion_triggers_rebuild_and_space_shrinks() {
        let pts = pseudo_points(2000, 13);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(8, 8));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        let pages_full = f.live_pages();
        for (i, &p) in pts.iter().enumerate() {
            if i % 10 != 9 {
                assert!(f.remove(p, i as u64));
            }
        }
        f.check_invariants();
        assert_eq!(f.len(), 200);
        assert!(
            f.live_pages() < pages_full / 2,
            "rebuild should reclaim space ({} vs {pages_full})",
            f.live_pages()
        );
    }

    #[test]
    fn delete_everything() {
        let pts = pseudo_points(300, 21);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(4, 4));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        for (i, &p) in pts.iter().enumerate() {
            assert!(f.remove(p, i as u64));
        }
        assert!(f.is_empty());
        f.check_invariants();
        assert_eq!(f.live_pages(), 0);
    }

    #[test]
    fn duplicate_coordinates() {
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(4, 4));
        for i in 0..50u64 {
            f.insert([1.0, 2.0], i);
        }
        f.check_invariants();
        let q = Aabb::new([1.0, 2.0], [1.0, 2.0]);
        assert_eq!(f.query_collect(&q).len(), 50);
        assert!(f.remove([1.0, 2.0], 30));
        assert_eq!(f.query_collect(&q).len(), 49);
    }

    #[test]
    fn four_dimensional_forest() {
        let pts2 = pseudo_points(600, 31);
        let pts: Vec<[f64; 4]> = pts2
            .iter()
            .zip(pseudo_points(600, 32).iter())
            .map(|(a, b)| [a[0], a[1], b[0], b[1]])
            .collect();
        let mut f: PartitionForest<4, u64> = PartitionForest::new(PartitionConfig::small(8, 8));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        f.check_invariants();
        let q = Aabb::new([0.0; 4], [600.0, 600.0, 600.0, 600.0]);
        let mut got: Vec<u64> = f.query_collect(&q).into_iter().map(|(_, v)| v).collect();
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
    fn query_io_sublinear_for_line_queries() {
        // A thin slab (the hard case for linear-space structures): the
        // partition tree must still prune most cells.
        let pts = pseudo_points(20_000, 43);
        let mut f: PartitionForest<2, u64> = PartitionForest::new(PartitionConfig::small(32, 16));
        for (i, &p) in pts.iter().enumerate() {
            f.insert(p, i as u64);
        }
        f.store_mut().try_clear_buffer().unwrap();
        let reads = f.store().stats().reads();
        let slab = ConvexPolygon::new(vec![
            HalfPlane::new(-1.0, 1.0, 5.0),
            HalfPlane::new(1.0, -1.0, 5.0),
            HalfPlane::x_ge(0.0),
            HalfPlane::x_le(1000.0),
        ]);
        let _ = f.query_collect(&slab);
        let cost = f.store().stats().reads() - reads;
        assert!(
            cost < f.live_pages() / 2,
            "slab query scanned {cost} of {} pages",
            f.live_pages()
        );
    }
}
