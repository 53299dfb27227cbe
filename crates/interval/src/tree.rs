//! The augmented interval B+-tree.

use mobidx_pager::{
    page_capacity, PageId, PageStore, PagerError, Store, DEFAULT_BUFFER_PAGES, DEFAULT_PAGE_SIZE,
};
use std::cmp::Ordering;
use std::fmt::Debug;

/// Sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct IntervalConfig {
    /// Maximum intervals per leaf.
    pub leaf_cap: usize,
    /// Maximum children per branch.
    pub branch_cap: usize,
    /// Buffer-pool pages.
    pub buffer_pages: usize,
}

impl Default for IntervalConfig {
    fn default() -> Self {
        let cap = page_capacity(DEFAULT_PAGE_SIZE, 12);
        Self {
            leaf_cap: cap,
            branch_cap: cap,
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }
}

impl IntervalConfig {
    /// Small-page configuration for tests.
    #[must_use]
    pub fn small(leaf_cap: usize, branch_cap: usize) -> Self {
        Self {
            leaf_cap,
            branch_cap,
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }

    fn min_leaf(&self) -> usize {
        (self.leaf_cap / 2).max(1)
    }

    fn min_branch(&self) -> usize {
        (self.branch_cap / 2).max(2)
    }
}

/// A stored interval `[start, end]` with payload `V`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ivl<V> {
    start: f64,
    end: f64,
    value: V,
}

impl<V: Ord> Ivl<V> {
    /// Leaf order: by `(start, value)` — values (object ids) break ties,
    /// so every entry is unique and deletion is exact.
    fn key(&self) -> (f64, &V) {
        (self.start, &self.value)
    }
}

fn cmp_key<V: Ord>(a: (f64, &V), b: (f64, &V)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("NaN interval start")
        .then_with(|| a.1.cmp(b.1))
}

#[derive(Debug, Clone)]
enum Node<V> {
    Leaf {
        /// Sorted by `(start, value)`.
        entries: Vec<Ivl<V>>,
    },
    Branch {
        /// `(start, value)` separators; child `i` holds keys in
        /// `[seps[i-1], seps[i])`.
        seps: Vec<(f64, V)>,
        children: Vec<PageId>,
        /// `max_ends[i]` = maximum interval end in child `i`'s subtree.
        max_ends: Vec<f64>,
    },
}

impl<V> Node<V> {
    fn occupancy(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Branch { children, .. } => children.len(),
        }
    }

    fn max_end(&self) -> f64 {
        match self {
            Node::Leaf { entries } => entries
                .iter()
                .map(|e| e.end)
                .fold(f64::NEG_INFINITY, f64::max),
            Node::Branch { max_ends, .. } => {
                max_ends.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }
}

/// A dynamic external-memory interval index.
///
/// Supports insertion and exact removal of closed intervals
/// `[start, end]` with payloads, plus stabbing (`t ∈ [start, end]`) and
/// window (`[start, end] ∩ [t1, t2] ≠ ∅`) queries.
#[derive(Debug)]
pub struct IntervalTree<V: Copy + Ord + Debug> {
    store: PageStore<Node<V>>,
    root: PageId,
    height: usize,
    len: usize,
    cfg: IntervalConfig,
}

impl<V: Copy + Ord + Debug> IntervalTree<V> {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    #[must_use]
    pub fn new(cfg: IntervalConfig) -> Self {
        assert!(
            cfg.leaf_cap >= 2 && cfg.branch_cap >= 3,
            "degenerate config"
        );
        let mut store = PageStore::new(cfg.buffer_pages);
        let root = store
            .try_allocate(Node::Leaf {
                entries: Vec::new(),
            })
            .expect("a fresh store's MemBackend never faults");
        Self {
            store,
            root,
            height: 1,
            len: 0,
            cfg,
        }
    }

    /// Number of stored intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
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

    /// Inserts the interval `[start, end]` with payload `value`.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault; partial splits are
    /// not rolled back, so after an error the tree must be treated as
    /// suspect and rebuilt.
    ///
    /// # Panics
    /// Panics if `start > end` or either bound is NaN.
    pub fn try_insert(&mut self, start: f64, end: f64, value: V) -> Result<(), PagerError> {
        assert!(start <= end, "inverted interval [{start}, {end}]");
        let ivl = Ivl { start, end, value };
        if let Some((sep, right, right_max)) = self.try_insert_rec(self.root, self.height, ivl)? {
            let left_max = self.store.try_read(self.root)?.max_end();
            let old_root = self.root;
            self.root = self.store.try_allocate(Node::Branch {
                seps: vec![sep],
                children: vec![old_root, right],
                max_ends: vec![left_max, right_max],
            })?;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the exact `(start, end, value)` interval. Returns
    /// `Ok(true)` if it was present.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault; partial
    /// rebalancing is not rolled back.
    pub fn try_remove(&mut self, start: f64, end: f64, value: V) -> Result<bool, PagerError> {
        let ivl = Ivl { start, end, value };
        let (removed, _) = self.try_remove_rec(self.root, self.height, &ivl)?;
        if removed {
            self.len -= 1;
        }
        while self.height > 1 {
            let only = match self.store.try_read(self.root)? {
                Node::Branch { children, .. } if children.len() == 1 => Some(children[0]),
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
        Ok(removed)
    }

    /// Payloads of all intervals containing time `t`.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault.
    pub fn try_stab(&mut self, t: f64) -> Result<Vec<V>, PagerError> {
        self.try_window(t, t)
    }

    /// Payloads of all intervals intersecting `[t1, t2]` (closed).
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault.
    pub fn try_window(&mut self, t1: f64, t2: f64) -> Result<Vec<V>, PagerError> {
        let mut out = Vec::new();
        self.try_window_for_each(t1, t2, |v| out.push(v))?;
        Ok(out)
    }

    /// Visits payloads of all intervals intersecting `[t1, t2]`.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault; payloads already
    /// visited stay visited.
    pub fn try_window_for_each(
        &mut self,
        t1: f64,
        t2: f64,
        mut visit: impl FnMut(V),
    ) -> Result<(), PagerError> {
        if t1 > t2 {
            return Ok(());
        }
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.store.try_read(pid)? {
                Node::Leaf { entries } => {
                    // Entries sorted by start: stop once start > t2.
                    let hits: Vec<V> = entries
                        .iter()
                        .take_while(|e| e.start <= t2)
                        .filter(|e| e.end >= t1)
                        .map(|e| e.value)
                        .collect();
                    for v in hits {
                        visit(v);
                    }
                }
                Node::Branch {
                    seps,
                    children,
                    max_ends,
                } => {
                    let pushes: Vec<PageId> = children
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| {
                            // Child i's minimum start is seps[i-1].0 (or
                            // -inf for the first child); prune children
                            // whose starts all exceed t2 or whose ends all
                            // precede t1.
                            let min_start = if i == 0 {
                                f64::NEG_INFINITY
                            } else {
                                seps[i - 1].0
                            };
                            min_start <= t2 && max_ends[i] >= t1
                        })
                        .map(|(_, &c)| c)
                        .collect();
                    stack.extend(pushes);
                }
            }
        }
        Ok(())
    }

    /// All `(start, end, value)` triples (uncounted; tests/audits).
    #[must_use]
    pub fn collect_all(&self) -> Vec<(f64, f64, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.store.peek(pid) {
                Node::Leaf { entries } => {
                    out.extend(entries.iter().map(|e| (e.start, e.end, e.value)));
                }
                Node::Branch { children, .. } => stack.extend(children.iter().copied()),
            }
        }
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| a.2.cmp(&b.2)));
        out
    }

    /// Verifies structural and augmentation invariants (uncounted).
    ///
    /// # Panics
    /// Panics describing the first violated invariant.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        self.check_rec(self.root, self.height, true, &mut count);
        assert_eq!(count, self.len, "len mismatch");
    }

    fn check_rec(&self, pid: PageId, level: usize, is_root: bool, count: &mut usize) -> f64 {
        match self.store.peek(pid) {
            Node::Leaf { entries } => {
                assert_eq!(level, 1, "leaf at wrong depth");
                assert!(entries.len() <= self.cfg.leaf_cap, "overfull leaf");
                if !is_root {
                    assert!(entries.len() >= self.cfg.min_leaf(), "underfull leaf");
                }
                assert!(
                    entries
                        .windows(2)
                        .all(|w| cmp_key(w[0].key(), w[1].key()) != Ordering::Greater),
                    "unsorted leaf"
                );
                for e in entries {
                    assert!(e.start <= e.end, "inverted stored interval");
                }
                *count += entries.len();
                entries
                    .iter()
                    .map(|e| e.end)
                    .fold(f64::NEG_INFINITY, f64::max)
            }
            Node::Branch {
                seps,
                children,
                max_ends,
            } => {
                assert!(level > 1, "branch at leaf depth");
                assert_eq!(seps.len() + 1, children.len(), "sep/child mismatch");
                assert_eq!(max_ends.len(), children.len(), "max_end arity");
                assert!(children.len() <= self.cfg.branch_cap, "overfull branch");
                if !is_root {
                    assert!(children.len() >= self.cfg.min_branch(), "underfull branch");
                }
                let mut subtree_max = f64::NEG_INFINITY;
                for (i, &child) in children.clone().iter().enumerate() {
                    let child_max = self.check_rec(child, level - 1, false, count);
                    assert!(
                        (child_max - max_ends[i]).abs() < 1e-9
                            || (child_max == f64::NEG_INFINITY && max_ends[i] == f64::NEG_INFINITY),
                        "stale max_end at child {i}: stored {} actual {child_max}",
                        max_ends[i]
                    );
                    subtree_max = subtree_max.max(child_max);
                }
                subtree_max
            }
        }
    }

    // ------------------------------------------------------------------

    fn route(seps: &[(f64, V)], key: (f64, &V)) -> usize {
        seps.partition_point(|s| cmp_key((s.0, &s.1), key) != Ordering::Greater)
    }

    #[allow(clippy::type_complexity)]
    fn try_insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        ivl: Ivl<V>,
    ) -> Result<Option<((f64, V), PageId, f64)>, PagerError> {
        if level == 1 {
            let occ = self.store.try_write(pid, |n| match n {
                Node::Leaf { entries } => {
                    let pos = entries
                        .partition_point(|x| cmp_key(x.key(), ivl.key()) != Ordering::Greater);
                    entries.insert(pos, ivl);
                    entries.len()
                }
                Node::Branch { .. } => unreachable!(),
            })?;
            if occ <= self.cfg.leaf_cap {
                return Ok(None);
            }
            // Split the leaf.
            let right_entries = self.store.try_write(pid, |n| match n {
                Node::Leaf { entries } => entries.split_off(entries.len() / 2),
                Node::Branch { .. } => unreachable!(),
            })?;
            let sep = (right_entries[0].start, right_entries[0].value);
            let right_max = right_entries
                .iter()
                .map(|e| e.end)
                .fold(f64::NEG_INFINITY, f64::max);
            let right = self.store.try_allocate(Node::Leaf {
                entries: right_entries,
            })?;
            return Ok(Some((sep, right, right_max)));
        }
        let (idx, child) = match self.store.try_read(pid)? {
            Node::Branch { seps, children, .. } => {
                let idx = Self::route(seps, ivl.key());
                (idx, children[idx])
            }
            Node::Leaf { .. } => unreachable!(),
        };
        let split = self.try_insert_rec(child, level - 1, ivl)?;
        // Refresh the child's max_end (the insert may have raised it; a
        // split may have lowered it).
        let child_max = self.store.try_read(child)?.max_end();
        let occ = self.store.try_write(pid, |n| match n {
            Node::Branch {
                seps,
                children,
                max_ends,
            } => {
                max_ends[idx] = child_max;
                if let Some((sep, right, right_max)) = split {
                    seps.insert(idx, sep);
                    children.insert(idx + 1, right);
                    max_ends.insert(idx + 1, right_max);
                }
                children.len()
            }
            Node::Leaf { .. } => unreachable!(),
        })?;
        if occ <= self.cfg.branch_cap {
            return Ok(None);
        }
        // Split the branch.
        let (sep, right_seps, right_children, right_maxes) =
            self.store.try_write(pid, |n| match n {
                Node::Branch {
                    seps,
                    children,
                    max_ends,
                } => {
                    let keep = children.len() / 2;
                    let right_children = children.split_off(keep);
                    let right_maxes = max_ends.split_off(keep);
                    let mut right_seps = seps.split_off(keep - 1);
                    let sep = right_seps.remove(0);
                    (sep, right_seps, right_children, right_maxes)
                }
                Node::Leaf { .. } => unreachable!(),
            })?;
        let right_max = right_maxes
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let right = self.store.try_allocate(Node::Branch {
            seps: right_seps,
            children: right_children,
            max_ends: right_maxes,
        })?;
        Ok(Some((sep, right, right_max)))
    }

    fn try_remove_rec(
        &mut self,
        pid: PageId,
        level: usize,
        ivl: &Ivl<V>,
    ) -> Result<(bool, bool), PagerError> {
        if level == 1 {
            let (removed, occ) = self.store.try_write(pid, |n| match n {
                Node::Leaf { entries } => {
                    match entries.iter().position(|e| {
                        e.start == ivl.start && e.end == ivl.end && e.value == ivl.value
                    }) {
                        Some(pos) => {
                            entries.remove(pos);
                            (true, entries.len())
                        }
                        None => (false, entries.len()),
                    }
                }
                Node::Branch { .. } => unreachable!(),
            })?;
            return Ok((removed, occ < self.cfg.min_leaf()));
        }
        let (idx, child) = match self.store.try_read(pid)? {
            Node::Branch { seps, children, .. } => {
                let idx = Self::route(seps, ivl.key());
                (idx, children[idx])
            }
            Node::Leaf { .. } => unreachable!(),
        };
        let (removed, child_under) = self.try_remove_rec(child, level - 1, ivl)?;
        if !removed {
            return Ok((false, false));
        }
        // Refresh the child's max_end.
        let child_max = self.store.try_read(child)?.max_end();
        self.store.try_write(pid, |n| {
            if let Node::Branch { max_ends, .. } = n {
                max_ends[idx] = child_max;
            }
        })?;
        if !child_under {
            return Ok((true, false));
        }
        let occ = self.try_fix_underflow(pid, idx, level)?;
        Ok((true, occ < self.cfg.min_branch()))
    }

    /// Re-derives `max_ends[i]` of `parent` for each child position in
    /// `positions` after a borrow or merge moved entries around.
    fn try_refresh_max_ends(
        &mut self,
        parent: PageId,
        positions: &[usize],
    ) -> Result<(), PagerError> {
        for &i in positions {
            let c = match self.store.try_read(parent)? {
                Node::Branch { children, .. } => children[i],
                Node::Leaf { .. } => unreachable!(),
            };
            let m = self.store.try_read(c)?.max_end();
            self.store.try_write(parent, |n| {
                if let Node::Branch { max_ends, .. } = n {
                    max_ends[i] = m;
                }
            })?;
        }
        Ok(())
    }

    /// Borrow-or-merge, mirroring the plain B+-tree but refreshing the
    /// `max_end` annotations of every touched child.
    fn try_fix_underflow(
        &mut self,
        parent: PageId,
        idx: usize,
        level: usize,
    ) -> Result<usize, PagerError> {
        let leaf_children = level == 2;
        let (child, left_sib, right_sib, child_count) = match self.store.try_read(parent)? {
            Node::Branch { children, .. } => (
                children[idx],
                (idx > 0).then(|| children[idx - 1]),
                (idx + 1 < children.len()).then(|| children[idx + 1]),
                children.len(),
            ),
            Node::Leaf { .. } => unreachable!(),
        };
        let min = if leaf_children {
            self.cfg.min_leaf()
        } else {
            self.cfg.min_branch()
        };

        if let Some(left) = left_sib {
            if self.store.try_read(left)?.occupancy() > min {
                self.try_borrow_from_left(parent, idx, left, child, leaf_children)?;
                self.try_refresh_max_ends(parent, &[idx - 1, idx])?;
                return Ok(child_count);
            }
        }
        if let Some(right) = right_sib {
            if self.store.try_read(right)?.occupancy() > min {
                self.try_borrow_from_right(parent, idx, child, right, leaf_children)?;
                self.try_refresh_max_ends(parent, &[idx, idx + 1])?;
                return Ok(child_count);
            }
        }
        let (lhs, rhs, sep_idx) = if let Some(left) = left_sib {
            (left, child, idx - 1)
        } else if let Some(right) = right_sib {
            (child, right, idx)
        } else {
            return Ok(child_count);
        };
        self.try_merge(parent, lhs, rhs, sep_idx)?;
        self.try_refresh_max_ends(parent, &[sep_idx])?;
        Ok(child_count - 1)
    }

    fn try_borrow_from_left(
        &mut self,
        parent: PageId,
        idx: usize,
        left: PageId,
        child: PageId,
        leaf_children: bool,
    ) -> Result<(), PagerError> {
        if leaf_children {
            let moved = self.store.try_write(left, |n| match n {
                Node::Leaf { entries } => entries.pop().expect("borrow from empty"),
                Node::Branch { .. } => unreachable!(),
            })?;
            let sep = (moved.start, moved.value);
            self.store.try_write(child, |n| {
                if let Node::Leaf { entries } = n {
                    entries.insert(0, moved);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx - 1] = sep;
                }
            })?;
        } else {
            let (moved_child, moved_max, new_sep) = self.store.try_write(left, |n| match n {
                Node::Branch {
                    seps,
                    children,
                    max_ends,
                } => (
                    children.pop().expect("borrow from empty"),
                    max_ends.pop().expect("borrow from empty"),
                    seps.pop().expect("borrow from empty"),
                ),
                Node::Leaf { .. } => unreachable!(),
            })?;
            let old_sep = match self.store.try_read(parent)? {
                Node::Branch { seps, .. } => seps[idx - 1],
                Node::Leaf { .. } => unreachable!(),
            };
            self.store.try_write(child, |n| {
                if let Node::Branch {
                    seps,
                    children,
                    max_ends,
                } = n
                {
                    seps.insert(0, old_sep);
                    children.insert(0, moved_child);
                    max_ends.insert(0, moved_max);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx - 1] = new_sep;
                }
            })?;
        }
        Ok(())
    }

    fn try_borrow_from_right(
        &mut self,
        parent: PageId,
        idx: usize,
        child: PageId,
        right: PageId,
        leaf_children: bool,
    ) -> Result<(), PagerError> {
        if leaf_children {
            let (moved, new_first) = self.store.try_write(right, |n| match n {
                Node::Leaf { entries } => {
                    let moved = entries.remove(0);
                    (moved, (entries[0].start, entries[0].value))
                }
                Node::Branch { .. } => unreachable!(),
            })?;
            self.store.try_write(child, |n| {
                if let Node::Leaf { entries } = n {
                    entries.push(moved);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx] = new_first;
                }
            })?;
        } else {
            let (moved_child, moved_max, new_sep) = self.store.try_write(right, |n| match n {
                Node::Branch {
                    seps,
                    children,
                    max_ends,
                } => (children.remove(0), max_ends.remove(0), seps.remove(0)),
                Node::Leaf { .. } => unreachable!(),
            })?;
            let old_sep = match self.store.try_read(parent)? {
                Node::Branch { seps, .. } => seps[idx],
                Node::Leaf { .. } => unreachable!(),
            };
            self.store.try_write(child, |n| {
                if let Node::Branch {
                    seps,
                    children,
                    max_ends,
                } = n
                {
                    seps.push(old_sep);
                    children.push(moved_child);
                    max_ends.push(moved_max);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx] = new_sep;
                }
            })?;
        }
        Ok(())
    }

    fn try_merge(
        &mut self,
        parent: PageId,
        lhs: PageId,
        rhs: PageId,
        sep_idx: usize,
    ) -> Result<(), PagerError> {
        let sep = match self.store.try_read(parent)? {
            Node::Branch { seps, .. } => seps[sep_idx],
            Node::Leaf { .. } => unreachable!(),
        };
        let rhs_node = self.store.try_read(rhs)?.clone();
        let _ = self.store.try_free(rhs)?;
        match rhs_node {
            Node::Leaf { entries } => {
                self.store.try_write(lhs, |n| {
                    if let Node::Leaf { entries: le } = n {
                        le.extend(entries);
                    }
                })?;
            }
            Node::Branch {
                seps,
                children,
                max_ends,
            } => {
                self.store.try_write(lhs, |n| {
                    if let Node::Branch {
                        seps: ls,
                        children: lc,
                        max_ends: lm,
                    } = n
                    {
                        ls.push(sep);
                        ls.extend(seps);
                        lc.extend(children);
                        lm.extend(max_ends);
                    }
                })?;
            }
        }
        self.store.try_write(parent, |n| {
            if let Node::Branch {
                seps,
                children,
                max_ends,
            } = n
            {
                seps.remove(sep_idx);
                children.remove(sep_idx + 1);
                max_ends.remove(sep_idx + 1);
            }
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IntervalConfig {
        IntervalConfig::small(4, 4)
    }

    fn pseudo_intervals(n: usize, seed: u64) -> Vec<(f64, f64)> {
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
                let s = next();
                let len = next() / 20.0;
                (s, s + len)
            })
            .collect()
    }

    #[test]
    fn stabbing_matches_naive() {
        let ivls = pseudo_intervals(800, 3);
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        for (i, &(s, e)) in ivls.iter().enumerate() {
            t.try_insert(s, e, i as u64).unwrap();
        }
        t.check_invariants();
        for probe in [0.0, 100.0, 333.3, 500.0, 999.9] {
            let mut got = t.try_stab(probe).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = ivls
                .iter()
                .enumerate()
                .filter(|(_, &(s, e))| s <= probe && probe <= e)
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "stab({probe})");
        }
    }

    #[test]
    fn window_matches_naive() {
        let ivls = pseudo_intervals(600, 11);
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        for (i, &(s, e)) in ivls.iter().enumerate() {
            t.try_insert(s, e, i as u64).unwrap();
        }
        for (w1, w2) in [(0.0, 50.0), (200.0, 210.0), (900.0, 1100.0)] {
            let mut got = t.try_window(w1, w2).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = ivls
                .iter()
                .enumerate()
                .filter(|(_, &(s, e))| s <= w2 && e >= w1)
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "window({w1},{w2})");
        }
    }

    #[test]
    fn delete_maintains_augmentation() {
        let ivls = pseudo_intervals(500, 17);
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        for (i, &(s, e)) in ivls.iter().enumerate() {
            t.try_insert(s, e, i as u64).unwrap();
        }
        for (i, &(s, e)) in ivls.iter().enumerate() {
            if i % 2 == 0 {
                assert!(t.try_remove(s, e, i as u64).unwrap(), "missing {i}");
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), 250);
        // Queries still exact after deletions.
        let mut got = t.try_stab(500.0).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = ivls
            .iter()
            .enumerate()
            .filter(|&(i, &(s, e))| i % 2 == 1 && s <= 500.0 && 500.0 <= e)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything() {
        let ivls = pseudo_intervals(300, 23);
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        for (i, &(s, e)) in ivls.iter().enumerate() {
            t.try_insert(s, e, i as u64).unwrap();
        }
        for (i, &(s, e)) in ivls.iter().enumerate() {
            assert!(t.try_remove(s, e, i as u64).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height, 1);
        t.check_invariants();
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        t.try_insert(1.0, 2.0, 7).unwrap();
        assert!(!t.try_remove(1.0, 2.0, 8).unwrap());
        assert!(!t.try_remove(1.0, 3.0, 7).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn point_intervals_and_touching_windows() {
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        t.try_insert(5.0, 5.0, 1).unwrap(); // degenerate point interval
        assert_eq!(t.try_stab(5.0).unwrap(), vec![1]);
        assert_eq!(t.try_window(5.0, 10.0).unwrap(), vec![1]); // touching at the start
        assert_eq!(t.try_window(0.0, 5.0).unwrap(), vec![1]); // touching at the end
        assert_eq!(t.try_window(5.1, 10.0).unwrap(), vec![]);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let mut t: IntervalTree<u64> = IntervalTree::new(cfg());
        t.try_insert(2.0, 1.0, 1).unwrap();
    }

    #[test]
    fn stabbing_io_is_logarithmic_when_sparse() {
        // Many short non-overlapping intervals: a stab should touch a
        // root-to-leaf path, not the whole structure.
        let mut t: IntervalTree<u64> = IntervalTree::new(IntervalConfig::small(16, 16));
        for i in 0..4000u64 {
            #[allow(clippy::cast_precision_loss)]
            let s = i as f64 * 10.0;
            t.try_insert(s, s + 5.0, i).unwrap();
        }
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        let hits = t.try_stab(20_005.0).unwrap();
        assert_eq!(hits.len(), 1);
        let cost = t.store().stats().reads() - reads;
        assert!(cost <= 8, "stab cost {cost} too high");
    }
}
