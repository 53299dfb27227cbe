//! The B+-tree proper: insert, exact delete with rebalancing, range
//! scans, bulk loading, and structural invariant checks.

use crate::node::Node;
use crate::search::page_search;
use crate::{cmp_entry, cmp_key, Key};
use mobidx_pager::{
    put_u32, put_u64, Backend, ByteReader, FixedCodec, PageId, PageStore, PagerError,
    RecoveredImage, Store, DEFAULT_BUFFER_PAGES,
};
use std::cmp::Ordering;
use std::fmt::Debug;

/// Panic message of the panicking twins the benchmark under `perf/` still
/// calls, and of [`BPlusTree::set_pin_root`]; fires only if a
/// fault-injecting backend is installed under them.
const INFALLIBLE: &str = "pager fault (use the try_* API with fault-injecting backends)";

/// Panic message of the construction paths ([`BPlusTree::new`],
/// [`BPlusTree::bulk_load`]): they build on a fresh store, whose
/// [`mobidx_pager::MemBackend`] permits every access.
const FRESH_STORE: &str = "a fresh store's MemBackend never faults";

/// Sizing parameters of a tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum entries per leaf (the paper's `B`).
    pub leaf_cap: usize,
    /// Maximum children per branch node.
    pub branch_cap: usize,
    /// Buffer-pool capacity in pages (the paper uses the root-to-leaf
    /// path, 3–4 pages).
    pub buffer_pages: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            leaf_cap: crate::paper_leaf_capacity(),
            branch_cap: crate::paper_leaf_capacity(),
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }
}

impl TreeConfig {
    /// Minimum entries in a non-root leaf.
    #[must_use]
    pub fn min_leaf(&self) -> usize {
        (self.leaf_cap / 2).max(1)
    }

    /// Minimum children in a non-root branch.
    #[must_use]
    pub fn min_branch(&self) -> usize {
        (self.branch_cap / 2).max(2)
    }
}

/// A paged B+-tree over `(key, value)` entries ordered lexicographically.
///
/// Values participate in the order, so entries are unique as long as the
/// caller never inserts the same `(key, value)` pair twice — which makes
/// [`BPlusTree::try_remove`] exact. (Exact duplicates are still
/// tolerated; `try_remove` then deletes one of them.)
#[derive(Debug)]
pub struct BPlusTree<K: Key, V: Copy + Ord + Debug> {
    store: PageStore<Node<K, V>>,
    root: PageId,
    /// Number of levels; 1 means the root is a leaf.
    height: usize,
    len: usize,
    cfg: TreeConfig,
    /// Whether the root page is kept pinned in the store (see
    /// [`BPlusTree::set_pin_root`]); maintained across root changes.
    pin_root: bool,
}

impl<K: Key, V: Copy + Ord + Debug> BPlusTree<K, V> {
    /// Creates an empty tree.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (capacities < 2).
    #[must_use]
    pub fn new(cfg: TreeConfig) -> Self {
        assert!(cfg.leaf_cap >= 2, "leaf capacity must be at least 2");
        assert!(cfg.branch_cap >= 3, "branch capacity must be at least 3");
        let mut store = PageStore::new(cfg.buffer_pages);
        let root = store.try_allocate(Node::empty_leaf()).expect(FRESH_STORE);
        Self {
            store,
            root,
            height: 1,
            len: 0,
            cfg,
            pin_root: false,
        }
    }

    /// Keeps the root page pinned in the store's dedicated pin slot: it
    /// is never evicted and survives [`Store::try_clear_buffer`], so a
    /// descent costs `height - 1` I/Os instead of `height` once the
    /// root has been faulted in. One page of memory; the pin follows
    /// the root across splits and collapses. Multi-tree facades (the
    /// velocity-partitioned method) enable this on every sub-tree to
    /// amortize their fan-out.
    pub fn set_pin_root(&mut self, on: bool) {
        self.pin_root = on;
        self.store
            .try_pin(on.then_some(self.root))
            .expect(INFALLIBLE);
    }

    /// Whether the root page is pinned.
    #[must_use]
    pub fn pin_root(&self) -> bool {
        self.pin_root
    }

    /// Re-points the store's pin slot at the current root after a root
    /// change. No-op unless [`BPlusTree::set_pin_root`] is on.
    fn repin(&mut self) -> Result<(), PagerError> {
        if self.pin_root {
            self.store.try_pin(Some(self.root))?;
        }
        Ok(())
    }

    /// Number of entries.
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

    /// The tree's sizing parameters.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// The underlying page store: its I/O counters, its buffer pool (the
    /// paper clears it before every query so query I/O is cold) and its
    /// backend.
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

    /// Swaps the storage backend (fault policy), returning the previous
    /// one. Page contents are untouched.
    pub fn set_backend(&mut self, backend: Box<dyn Backend>) -> Box<dyn Backend> {
        self.store.set_backend(backend)
    }

    /// [`BPlusTree::try_insert`], panicking on a pager fault.
    /// Kept only because the benchmark under `perf/` calls it; it goes
    /// with ROADMAP item 1(d). Product code calls the `try_` method.
    ///
    /// # Panics
    /// On a fault the backend injects.
    pub fn insert(&mut self, key: K, value: V) {
        self.try_insert(key, value).expect(INFALLIBLE);
    }

    /// Inserts the entry `(key, value)`.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault. The insert is then
    /// *not* counted in [`BPlusTree::len`], but node splits already
    /// performed are not rolled back — after a torn error the tree must
    /// be treated as suspect and rebuilt (see DESIGN.md, "Fault model &
    /// recovery guarantees").
    pub fn try_insert(&mut self, key: K, value: V) -> Result<(), PagerError> {
        if let Some((sep, right)) = self.try_insert_rec(self.root, self.height, (key, value))? {
            let old_root = self.root;
            self.root = self.store.try_allocate(Node::Branch {
                seps: vec![sep],
                children: vec![old_root, right],
            })?;
            self.height += 1;
            self.repin()?;
        }
        self.len += 1;
        Ok(())
    }

    /// Inserts a batch of entries **sorted lexicographically**, grouping
    /// same-leaf entries so that `k` inserts landing in one leaf pay a
    /// single root-to-leaf descent and dirty a single page instead of `k`.
    ///
    /// Entries are routed down the tree in sorted groups: each branch page
    /// on the combined root-to-leaf paths is read once, and each touched
    /// leaf is written once. An overfull leaf is split into
    /// `ceil(total / leaf_cap)` balanced chunks (every chunk within
    /// `[min_leaf, leaf_cap]`), with sibling links threaded right-to-left
    /// so the chain stays exact; branches absorb the promoted separators
    /// the same way.
    ///
    /// The resulting tree holds the same entries as a sequential insert
    /// loop and satisfies the same invariants, but node boundaries may
    /// differ: multi-way splits balance chunks instead of halving one
    /// overfull node at a time.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault; splits already
    /// performed are not rolled back (see [`BPlusTree::try_insert`]).
    ///
    /// # Panics
    /// Panics in debug builds if the entries are not sorted.
    pub fn try_insert_batch(&mut self, entries: &[(K, V)]) -> Result<(), PagerError> {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| cmp_entry(&w[0], &w[1]) != Ordering::Greater),
            "insert_batch requires sorted entries"
        );
        if entries.is_empty() {
            return Ok(());
        }
        let mut promoted = self.try_insert_batch_rec(self.root, self.height, entries)?;
        // Absorb promoted siblings into new root levels until one node
        // can hold them all.
        while !promoted.is_empty() {
            let branch_cap = self.cfg.branch_cap;
            let mut seps = Vec::with_capacity(promoted.len());
            let mut children = Vec::with_capacity(promoted.len() + 1);
            children.push(self.root);
            for (sep, pid) in promoted {
                seps.push(sep);
                children.push(pid);
            }
            if children.len() <= branch_cap {
                self.root = self.store.try_allocate(Node::Branch { seps, children })?;
                self.height += 1;
                promoted = Vec::new();
            } else {
                let sizes = Self::chunk_sizes(children.len(), branch_cap);
                let mut next_level = Vec::with_capacity(sizes.len() - 1);
                let mut first = None;
                let mut pos = 0usize;
                for (j, &count) in sizes.iter().enumerate() {
                    let node = Node::Branch {
                        seps: seps[pos..pos + count - 1].to_vec(),
                        children: children[pos..pos + count].to_vec(),
                    };
                    let pid = self.store.try_allocate(node)?;
                    if j == 0 {
                        first = Some(pid);
                    } else {
                        next_level.push((seps[pos - 1], pid));
                    }
                    pos += count;
                }
                self.root = first.expect("multi-split yields at least one chunk");
                self.height += 1;
                promoted = next_level;
            }
        }
        self.repin()?;
        self.len += entries.len();
        Ok(())
    }

    /// [`BPlusTree::try_apply_batch`], panicking on a pager fault.
    /// Kept only because the benchmark under `perf/` calls it; it goes
    /// with ROADMAP item 1(d). Product code calls the `try_` method.
    ///
    /// # Panics
    /// On a fault the backend injects, and in debug builds if either
    /// slice is not sorted.
    pub fn apply_batch(&mut self, removes: &[(K, V)], inserts: &[(K, V)]) -> usize {
        self.try_apply_batch(removes, inserts).expect(INFALLIBLE)
    }

    /// Applies sorted removals followed by sorted insertions.
    ///
    /// Removals stay per-entry (delete rebalancing is inherently
    /// page-at-a-time) but benefit from sorted order through buffer hits
    /// on shared root-to-leaf paths; insertions go through the grouped
    /// [`BPlusTree::try_insert_batch`] path. Returns how many removals
    /// found their entry.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault; operations already
    /// applied are not rolled back (see [`BPlusTree::try_insert`]).
    ///
    /// # Panics
    /// Panics in debug builds if either slice is not sorted.
    pub fn try_apply_batch(
        &mut self,
        removes: &[(K, V)],
        inserts: &[(K, V)],
    ) -> Result<usize, PagerError> {
        debug_assert!(
            removes
                .windows(2)
                .all(|w| cmp_entry(&w[0], &w[1]) != Ordering::Greater),
            "apply_batch requires sorted removals"
        );
        let mut removed = 0usize;
        for &(k, v) in removes {
            if self.try_remove(k, v)? {
                removed += 1;
            }
        }
        self.try_insert_batch(inserts)?;
        Ok(removed)
    }

    /// [`BPlusTree::try_remove`], panicking on a pager fault.
    /// Kept only because the benchmark under `perf/` calls it; it goes
    /// with ROADMAP item 1(d). Product code calls the `try_` method.
    ///
    /// # Panics
    /// On a fault the backend injects.
    pub fn remove(&mut self, key: K, value: V) -> bool {
        self.try_remove(key, value).expect(INFALLIBLE)
    }

    /// Removes the entry `(key, value)`. Returns `Ok(true)` if it was
    /// present.
    ///
    /// # Errors
    /// Propagates the first unrecovered storage fault; rebalancing
    /// already performed is not rolled back (see [`BPlusTree::try_insert`]).
    pub fn try_remove(&mut self, key: K, value: V) -> Result<bool, PagerError> {
        let (removed, _) = self.try_remove_rec(self.root, self.height, &(key, value))?;
        if removed {
            self.len -= 1;
        }
        // Collapse a root branch that lost all but one child.
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
                    self.repin()?;
                }
                None => break,
            }
        }
        Ok(removed)
    }

    /// Reports every value whose key lies in `[lo, hi]`, in key order.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault; the scan stops there.
    pub fn try_range(&mut self, lo: K, hi: K) -> Result<Vec<(K, V)>, PagerError> {
        let mut out = Vec::new();
        self.range_runs(lo, hi, |run| out.extend_from_slice(run))?;
        Ok(out)
    }

    /// [`BPlusTree::try_range_for_each`], panicking on a pager fault.
    /// Kept only because the benchmark under `perf/` calls it; it goes
    /// with ROADMAP item 1(d). Product code calls the `try_` method.
    ///
    /// # Panics
    /// On a fault the backend injects.
    pub fn range_for_each(&mut self, lo: K, hi: K, visit: impl FnMut(K, V)) {
        self.try_range_for_each(lo, hi, visit).expect(INFALLIBLE);
    }

    /// Visits every entry with key in `[lo, hi]`, in key order.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault; entries already
    /// visited stay visited.
    pub fn try_range_for_each(
        &mut self,
        lo: K,
        hi: K,
        mut visit: impl FnMut(K, V),
    ) -> Result<(), PagerError> {
        self.range_runs(lo, hi, |run| {
            for &(k, v) in run {
                visit(k, v);
            }
        })
    }

    /// Visits the entries with key in `[lo, hi]` as borrowed *leaf runs*:
    /// one non-empty slice per leaf that holds qualifying entries, in
    /// key order, straight out of the buffered page — nothing is copied.
    /// Every other range read of the live tree is a wrapper over this
    /// walk, so all of them visit the same pages in the same order.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault; runs already visited
    /// stay visited.
    pub fn range_runs(
        &mut self,
        lo: K,
        hi: K,
        mut visit: impl FnMut(&[(K, V)]),
    ) -> Result<(), PagerError> {
        if cmp_key(&lo, &hi) == Ordering::Greater {
            return Ok(());
        }
        // Descend to the leftmost leaf that can contain `lo`.
        let mut node = self.root;
        for _ in 1..self.height {
            node = match self.store.try_read(node)? {
                Node::Branch { seps, children } => children[branch_slot(seps, &lo)],
                Node::Leaf { .. } => unreachable!("leaf above leaf level"),
            };
        }
        // Walk the leaf chain; only the first leaf can start below `lo`.
        let mut current = Some(node);
        let mut lo = Some(&lo);
        while let Some(leaf) = current {
            let (entries, next) = match self.store.try_read(leaf)? {
                Node::Leaf { entries, next } => (entries.as_slice(), *next),
                Node::Branch { .. } => unreachable!("branch at leaf level"),
            };
            let (run, done) = leaf_run(entries, lo.take(), &hi);
            if !run.is_empty() {
                visit(run);
            }
            current = if done { None } else { next };
        }
        Ok(())
    }

    /// Publishes an immutable snapshot of the tree.
    ///
    /// The snapshot shares pages with the live tree (the page store holds
    /// pages behind `Arc`); publication is O(live slots) pointer bumps,
    /// and only pages the live tree dirties *after* the freeze are
    /// content-copied (copy-on-write). Snapshot reads go straight to the
    /// frozen pages — no buffer pool, no I/O accounting, no faults — so
    /// a [`FrozenTree`] can be queried through `&self` from any thread.
    #[must_use]
    pub fn freeze(&self) -> FrozenTree<K, V> {
        FrozenTree {
            pages: self.store.freeze(),
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }

    /// Turns `view` into the snapshot [`BPlusTree::freeze`] would
    /// publish now, in place, and returns `true` — or returns `false`
    /// and leaves `view` as it was when a clone of it is still alive.
    ///
    /// Only the pages that changed since `view` was sealed cost
    /// anything (see [`mobidx_pager::PageStore::refreeze`]), and the
    /// pre-images it lets go become the allocations the tree's next
    /// copy-on-writes copy into.
    pub fn refreeze(&mut self, view: &mut FrozenTree<K, V>) -> bool {
        if !self.store.refreeze(&mut view.pages) {
            return false;
        }
        view.root = self.root;
        view.height = self.height;
        view.len = self.len;
        true
    }

    /// Whether the exact entry `(key, value)` is present.
    ///
    /// # Errors
    /// Propagates the first unrecovered read fault.
    pub fn try_contains(&mut self, key: K, value: V) -> Result<bool, PagerError> {
        let e = (key, value);
        let mut node = self.root;
        for _ in 1..self.height {
            node = match self.store.try_read(node)? {
                Node::Branch { seps, children } => {
                    let idx = Self::route(seps, &e);
                    children[idx]
                }
                Node::Leaf { .. } => unreachable!(),
            };
        }
        Ok(match self.store.try_read(node)? {
            Node::Leaf { entries, .. } => find_entry(entries, &e).is_some(),
            Node::Branch { .. } => unreachable!(),
        })
    }

    /// Builds a tree from entries **sorted lexicographically**, packing
    /// nodes to `fill × capacity` (clamped to `[0.1, 1.0]`).
    ///
    /// # Panics
    /// Panics (debug builds) if the entries are not sorted.
    #[must_use]
    pub fn bulk_load(cfg: TreeConfig, entries: &[(K, V)], fill: f64) -> Self {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| cmp_entry(&w[0], &w[1]) != Ordering::Greater),
            "bulk_load requires sorted entries"
        );
        let fill = fill.clamp(0.1, 1.0);
        let mut tree = Self::new(cfg);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();

        // Level 0: leaves.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let per_leaf = ((cfg.leaf_cap as f64 * fill) as usize).clamp(1, cfg.leaf_cap);
        let mut level: Vec<((K, V), PageId)> = Vec::new();
        let mut prev_leaf: Option<PageId> = None;
        for chunk in entries.chunks(per_leaf) {
            let pid = tree
                .store
                .try_allocate(Node::Leaf {
                    entries: chunk.to_vec(),
                    next: None,
                })
                .expect(FRESH_STORE);
            if let Some(prev) = prev_leaf {
                tree.store
                    .try_write(prev, |n| {
                        if let Node::Leaf { next, .. } = n {
                            *next = Some(pid);
                        }
                    })
                    .expect(FRESH_STORE);
            }
            prev_leaf = Some(pid);
            level.push((chunk[0], pid));
        }
        // Reuse the pre-allocated empty root as the first leaf? Simpler to
        // free it and re-point the root.
        let _ = tree.store.try_free(tree.root).expect(FRESH_STORE);

        // Upper levels.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let per_branch = ((cfg.branch_cap as f64 * fill) as usize).clamp(2, cfg.branch_cap);
        let mut height = 1;
        while level.len() > 1 {
            let mut upper: Vec<((K, V), PageId)> = Vec::new();
            for group in level.chunks(per_branch) {
                let seps: Vec<(K, V)> = group[1..].iter().map(|(min, _)| *min).collect();
                let children: Vec<PageId> = group.iter().map(|&(_, pid)| pid).collect();
                let pid = tree
                    .store
                    .try_allocate(Node::Branch { seps, children })
                    .expect(FRESH_STORE);
                upper.push((group[0].0, pid));
            }
            level = upper;
            height += 1;
        }
        tree.root = level[0].1;
        tree.height = height;
        tree
    }

    /// All entries in order (uncounted access; for tests and audits).
    #[must_use]
    pub fn collect_all(&self) -> Vec<(K, V)> {
        let mut node = self.root;
        for _ in 1..self.height {
            node = match self.store.peek(node) {
                Node::Branch { children, .. } => children[0],
                Node::Leaf { .. } => unreachable!(),
            };
        }
        let mut out = Vec::with_capacity(self.len);
        let mut current = Some(node);
        while let Some(leaf) = current {
            match self.store.peek(leaf) {
                Node::Leaf { entries, next } => {
                    out.extend_from_slice(entries);
                    current = *next;
                }
                Node::Branch { .. } => unreachable!(),
            }
        }
        out
    }

    /// Verifies structural invariants (uncounted access):
    /// * uniform leaf depth equal to `height`;
    /// * entries/separators sorted, and every subtree within the key
    ///   interval its separators promise;
    /// * node occupancies within `[min, cap]` (`min` only when
    ///   `strict_occupancy`, and never for the root);
    /// * the leaf chain visits exactly the tree's entries in order;
    /// * `len` equals the number of entries.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self, strict_occupancy: bool) {
        let mut leaf_count = 0usize;
        self.check_rec(
            self.root,
            self.height,
            None,
            None,
            strict_occupancy,
            true,
            &mut leaf_count,
        );
        assert_eq!(leaf_count, self.len, "len does not match leaf contents");
        // The chain must visit all entries in order.
        let chained = self.collect_all();
        assert_eq!(chained.len(), self.len, "leaf chain misses entries");
        assert!(
            chained
                .windows(2)
                .all(|w| cmp_entry(&w[0], &w[1]) != Ordering::Greater),
            "leaf chain out of order"
        );
        self.check_leaf_links();
    }

    /// Verifies the leaf sibling links (uncounted access): starting from
    /// the leftmost leaf, the `next` chain visits exactly the tree's
    /// leaves in in-order sequence and terminates at `None` — splits,
    /// merges, and underflow fixes must never leave a dangling, skipped,
    /// or cyclic link.
    ///
    /// # Panics
    /// Panics with a description of the first violated link.
    pub fn check_leaf_links(&self) {
        let mut by_tree = Vec::new();
        self.leaf_ids_rec(self.root, self.height, &mut by_tree);
        let mut by_chain = Vec::new();
        let mut current = Some(by_tree[0]);
        while let Some(leaf) = current {
            assert!(
                by_chain.len() < by_tree.len(),
                "leaf chain visits more pages than the tree has leaves \
                 (cycle or dangling link)"
            );
            by_chain.push(leaf);
            current = match self.store.peek(leaf) {
                Node::Leaf { next, .. } => *next,
                Node::Branch { .. } => panic!("leaf chain links to a branch page"),
            };
        }
        assert_eq!(
            by_chain, by_tree,
            "leaf chain does not match the in-order leaf sequence"
        );
    }

    /// Collects leaf page ids by in-order tree descent (uncounted).
    fn leaf_ids_rec(&self, node: PageId, level: usize, out: &mut Vec<PageId>) {
        if level == 1 {
            out.push(node);
            return;
        }
        match self.store.peek(node) {
            Node::Branch { children, .. } => {
                for &child in children {
                    self.leaf_ids_rec(child, level - 1, out);
                }
            }
            Node::Leaf { .. } => unreachable!("leaf above leaf level"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_rec(
        &self,
        node: PageId,
        level: usize,
        lower: Option<&(K, V)>,
        upper: Option<&(K, V)>,
        strict: bool,
        is_root: bool,
        leaf_count: &mut usize,
    ) {
        let within = |e: &(K, V)| {
            if let Some(lo) = lower {
                assert!(
                    cmp_entry(e, lo) != Ordering::Less,
                    "entry {e:?} below lower bound {lo:?}"
                );
            }
            if let Some(hi) = upper {
                assert!(
                    cmp_entry(e, hi) == Ordering::Less,
                    "entry {e:?} not below upper bound {hi:?}"
                );
            }
        };
        match self.store.peek(node) {
            Node::Leaf { entries, .. } => {
                assert_eq!(level, 1, "leaf at wrong depth");
                assert!(entries.len() <= self.cfg.leaf_cap, "overfull leaf");
                if strict && !is_root {
                    assert!(
                        entries.len() >= self.cfg.min_leaf(),
                        "underfull leaf: {} < {}",
                        entries.len(),
                        self.cfg.min_leaf()
                    );
                }
                assert!(
                    entries
                        .windows(2)
                        .all(|w| cmp_entry(&w[0], &w[1]) != Ordering::Greater),
                    "unsorted leaf"
                );
                for e in entries {
                    within(e);
                }
                *leaf_count += entries.len();
            }
            Node::Branch { seps, children } => {
                assert!(level > 1, "branch at leaf depth");
                assert_eq!(seps.len() + 1, children.len(), "separator/child mismatch");
                assert!(children.len() <= self.cfg.branch_cap, "overfull branch");
                if strict && !is_root {
                    assert!(
                        children.len() >= self.cfg.min_branch(),
                        "underfull branch: {} < {}",
                        children.len(),
                        self.cfg.min_branch()
                    );
                }
                assert!(
                    seps.windows(2)
                        .all(|w| cmp_entry(&w[0], &w[1]) == Ordering::Less),
                    "unsorted separators"
                );
                for s in seps {
                    within(s);
                }
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 { lower } else { Some(&seps[i - 1]) };
                    let hi = if i == seps.len() {
                        upper
                    } else {
                        Some(&seps[i])
                    };
                    self.check_rec(child, level - 1, lo, hi, strict, false, leaf_count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert internals
    // ------------------------------------------------------------------

    /// Routes entry `e` in a branch: first child whose subtree can hold it.
    fn route(seps: &[(K, V)], e: &(K, V)) -> usize {
        page_search(seps, &e.0, |s| cmp_entry(s, e) != Ordering::Greater)
    }

    #[allow(clippy::type_complexity)]
    fn try_insert_rec(
        &mut self,
        node: PageId,
        level: usize,
        e: (K, V),
    ) -> Result<Option<((K, V), PageId)>, PagerError> {
        if level == 1 {
            let overflow = self.store.try_write(node, |n| match n {
                Node::Leaf { entries, .. } => {
                    let pos = page_search(entries, &e.0, |x| cmp_entry(x, &e) != Ordering::Greater);
                    entries.insert(pos, e);
                    entries.len()
                }
                Node::Branch { .. } => unreachable!("branch at leaf level"),
            })? > self.cfg.leaf_cap;
            return if overflow {
                self.try_split_leaf(node).map(Some)
            } else {
                Ok(None)
            };
        }
        let (idx, child) = match self.store.try_read(node)? {
            Node::Branch { seps, children } => {
                let idx = Self::route(seps, &e);
                (idx, children[idx])
            }
            Node::Leaf { .. } => unreachable!("leaf above leaf level"),
        };
        let Some((sep, right)) = self.try_insert_rec(child, level - 1, e)? else {
            return Ok(None);
        };
        let overflow = self.store.try_write(node, |n| match n {
            Node::Branch { seps, children } => {
                seps.insert(idx, sep);
                children.insert(idx + 1, right);
                children.len()
            }
            Node::Leaf { .. } => unreachable!(),
        })? > self.cfg.branch_cap;
        if overflow {
            self.try_split_branch(node).map(Some)
        } else {
            Ok(None)
        }
    }

    fn try_split_leaf(&mut self, left: PageId) -> Result<((K, V), PageId), PagerError> {
        let (right_entries, old_next) = self.store.try_write(left, |n| match n {
            Node::Leaf { entries, next } => {
                let mid = entries.len() / 2;
                (entries.split_off(mid), *next)
            }
            Node::Branch { .. } => unreachable!(),
        })?;
        let sep = right_entries[0];
        let right = self.store.try_allocate(Node::Leaf {
            entries: right_entries,
            next: old_next,
        })?;
        self.store.try_write(left, |n| {
            if let Node::Leaf { next, .. } = n {
                *next = Some(right);
            }
        })?;
        Ok((sep, right))
    }

    fn try_split_branch(&mut self, left: PageId) -> Result<((K, V), PageId), PagerError> {
        let (sep, right_seps, right_children) = self.store.try_write(left, |n| match n {
            Node::Branch { seps, children } => {
                let keep = children.len() / 2; // children kept on the left
                let right_children = children.split_off(keep);
                let mut right_seps = seps.split_off(keep - 1);
                let sep = right_seps.remove(0);
                (sep, right_seps, right_children)
            }
            Node::Leaf { .. } => unreachable!(),
        })?;
        let right = self.store.try_allocate(Node::Branch {
            seps: right_seps,
            children: right_children,
        })?;
        Ok((sep, right))
    }

    // ------------------------------------------------------------------
    // Batch-insert internals
    // ------------------------------------------------------------------

    /// Balanced chunk sizes for `total` items split into
    /// `ceil(total / cap)` chunks. Every size is `floor` or `ceil` of the
    /// average, which for `total > cap` provably lies within
    /// `[cap / 2, cap]` — so multi-split nodes always satisfy the
    /// occupancy invariants.
    fn chunk_sizes(total: usize, cap: usize) -> Vec<usize> {
        let num = total.div_ceil(cap);
        let base = total / num;
        let rem = total % num;
        (0..num).map(|i| base + usize::from(i < rem)).collect()
    }

    /// Merges the sorted `batch` into the sorted `entries` in place:
    /// the batch is appended, then from the back each batch entry finds
    /// its slot among the existing entries not yet moved, with
    /// [`page_search`], and the existing entries above it move up as one
    /// block — a single entry is one search + `insert`.
    /// Existing entries win ties (a batch entry lands behind every
    /// entry it equals), so the layout is that of sequential insertion.
    fn merge_sorted(entries: &mut Vec<(K, V)>, batch: &[(K, V)]) {
        let mut live = entries.len();
        entries.extend_from_slice(batch);
        for (pending, e) in batch.iter().enumerate().rev() {
            let pos = page_search(&entries[..live], &e.0, |x| {
                cmp_entry(x, e) != Ordering::Greater
            });
            entries.copy_within(pos..live, pos + pending + 1);
            entries[pos + pending] = *e;
            live = pos;
        }
    }

    /// Inserts a sorted batch under `node`, returning the promoted
    /// `(separator, right-sibling)` pairs if the node had to split
    /// (possibly several on one level, unlike the single-entry path).
    #[allow(clippy::type_complexity)]
    fn try_insert_batch_rec(
        &mut self,
        node: PageId,
        level: usize,
        batch: &[(K, V)],
    ) -> Result<Vec<((K, V), PageId)>, PagerError> {
        if level == 1 {
            return self.try_insert_batch_leaf(node, batch);
        }
        // One borrowed read of the branch: cut the sorted batch into the
        // contiguous run routed to each child (entries equal to a
        // separator go right, as in `route`) and keep only the non-empty
        // groups, each as `(slot, child, end)`.
        let mut groups: Vec<(usize, PageId, usize)> = Vec::new();
        match self.store.try_read(node)? {
            Node::Branch { seps, children } => {
                let mut start = 0usize;
                while start < batch.len() {
                    let slot = Self::route(seps, &batch[start]);
                    let end = seps.get(slot).map_or(batch.len(), |sep| {
                        start
                            + batch[start..]
                                .partition_point(|e| cmp_entry(e, sep) == Ordering::Less)
                    });
                    groups.push((slot, children[slot], end));
                    start = end;
                }
            }
            Node::Leaf { .. } => unreachable!("leaf above leaf level"),
        }
        let mut spliced: Vec<(usize, Vec<((K, V), PageId)>)> = Vec::new();
        let mut start = 0usize;
        for (slot, child, end) in groups {
            let promoted = self.try_insert_batch_rec(child, level - 1, &batch[start..end])?;
            if !promoted.is_empty() {
                spliced.push((slot, promoted));
            }
            start = end;
        }
        if spliced.is_empty() {
            return Ok(Vec::new());
        }
        // Splice every child's promoted siblings in with one write; on
        // overflow keep the first balanced chunk here and hand the rest
        // back for allocation.
        let branch_cap = self.cfg.branch_cap;
        let tail = self.store.try_write(node, move |n| match n {
            Node::Branch { seps, children } => {
                let extra: usize = spliced.iter().map(|(_, p)| p.len()).sum();
                let mut new_seps = Vec::with_capacity(seps.len() + extra);
                let mut new_children = Vec::with_capacity(children.len() + extra);
                let mut si = 0usize;
                for (i, &child) in children.iter().enumerate() {
                    if i > 0 {
                        new_seps.push(seps[i - 1]);
                    }
                    new_children.push(child);
                    if si < spliced.len() && spliced[si].0 == i {
                        for &(sep, pid) in &spliced[si].1 {
                            new_seps.push(sep);
                            new_children.push(pid);
                        }
                        si += 1;
                    }
                }
                if new_children.len() <= branch_cap {
                    *seps = new_seps;
                    *children = new_children;
                    return Vec::new();
                }
                let sizes = Self::chunk_sizes(new_children.len(), branch_cap);
                *seps = new_seps[..sizes[0] - 1].to_vec();
                *children = new_children[..sizes[0]].to_vec();
                let mut tail = Vec::with_capacity(sizes.len() - 1);
                let mut pos = sizes[0];
                for &count in &sizes[1..] {
                    tail.push((
                        new_seps[pos - 1],
                        new_seps[pos..pos + count - 1].to_vec(),
                        new_children[pos..pos + count].to_vec(),
                    ));
                    pos += count;
                }
                tail
            }
            Node::Leaf { .. } => unreachable!(),
        })?;
        let mut promoted = Vec::with_capacity(tail.len());
        for (sep, chunk_seps, chunk_children) in tail {
            let pid = self.store.try_allocate(Node::Branch {
                seps: chunk_seps,
                children: chunk_children,
            })?;
            promoted.push((sep, pid));
        }
        Ok(promoted)
    }

    /// Merges a sorted batch into one leaf. Without overflow this costs a
    /// single fault-in and a single dirty page regardless of the batch
    /// size, and the leaf is edited where it lives; with overflow the
    /// merged run is cut into balanced chunks and the new right siblings
    /// are allocated right-to-left so the sibling chain threads through
    /// them exactly once.
    #[allow(clippy::type_complexity)]
    fn try_insert_batch_leaf(
        &mut self,
        node: PageId,
        batch: &[(K, V)],
    ) -> Result<Vec<((K, V), PageId)>, PagerError> {
        let leaf_cap = self.cfg.leaf_cap;
        // The counted read decides whether the batch fits; only a leaf
        // that overflows is copied out.
        let (overflow, old_next) = match self.store.try_read(node)? {
            Node::Leaf { entries, next } => {
                let overflow = (entries.len() + batch.len() > leaf_cap).then(|| {
                    let mut merged = Vec::with_capacity(entries.len() + batch.len());
                    merged.extend_from_slice(entries);
                    Self::merge_sorted(&mut merged, batch);
                    merged
                });
                (overflow, *next)
            }
            Node::Branch { .. } => unreachable!("branch at leaf level"),
        };
        let Some(mut merged) = overflow else {
            self.store.try_write(node, |n| match n {
                Node::Leaf { entries, .. } => Self::merge_sorted(entries, batch),
                Node::Branch { .. } => unreachable!(),
            })?;
            return Ok(Vec::new());
        };
        let sizes = Self::chunk_sizes(merged.len(), leaf_cap);
        let mut next_link = old_next;
        let mut promoted = Vec::with_capacity(sizes.len() - 1);
        let mut end = merged.len();
        for &count in sizes[1..].iter().rev() {
            let chunk = merged[end - count..end].to_vec();
            end -= count;
            let sep = chunk[0];
            let pid = self.store.try_allocate(Node::Leaf {
                entries: chunk,
                next: next_link,
            })?;
            next_link = Some(pid);
            promoted.push((sep, pid));
        }
        promoted.reverse();
        merged.truncate(sizes[0]);
        self.store.try_write(node, move |n| match n {
            Node::Leaf { entries, next } => {
                *entries = merged;
                *next = next_link;
            }
            Node::Branch { .. } => unreachable!(),
        })?;
        Ok(promoted)
    }

    // ------------------------------------------------------------------
    // Delete internals
    // ------------------------------------------------------------------

    fn try_remove_rec(
        &mut self,
        node: PageId,
        level: usize,
        e: &(K, V),
    ) -> Result<(bool, bool), PagerError> {
        if level == 1 {
            let (removed, occ) = self.store.try_write(node, |n| match n {
                Node::Leaf { entries, .. } => {
                    let found = find_entry(entries, e);
                    if let Some(pos) = found {
                        entries.remove(pos);
                    }
                    (found.is_some(), entries.len())
                }
                Node::Branch { .. } => unreachable!(),
            })?;
            return Ok((removed, occ < self.cfg.min_leaf()));
        }
        let (idx, child) = match self.store.try_read(node)? {
            Node::Branch { seps, children } => {
                let idx = Self::route(seps, e);
                (idx, children[idx])
            }
            Node::Leaf { .. } => unreachable!(),
        };
        let (removed, child_under) = self.try_remove_rec(child, level - 1, e)?;
        if !child_under {
            return Ok((removed, false));
        }
        let occ = self.try_fix_underflow(node, idx, level)?;
        Ok((removed, occ < self.cfg.min_branch()))
    }

    /// Restores the occupancy of `children[idx]` of branch `parent` by
    /// borrowing from or merging with an adjacent sibling. Returns the
    /// parent's resulting child count.
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

        // Try borrowing from the left sibling.
        if let Some(left) = left_sib {
            if self.store.try_read(left)?.occupancy() > min {
                self.try_borrow_from_left(parent, idx, left, child, leaf_children)?;
                return Ok(child_count);
            }
        }
        // Try borrowing from the right sibling.
        if let Some(right) = right_sib {
            if self.store.try_read(right)?.occupancy() > min {
                self.try_borrow_from_right(parent, idx, child, right, leaf_children)?;
                return Ok(child_count);
            }
        }
        // Merge: absorb the right node of an adjacent pair into the left.
        let (lhs, rhs, sep_idx) = if let Some(left) = left_sib {
            (left, child, idx - 1)
        } else if let Some(right) = right_sib {
            (child, right, idx)
        } else {
            // Root with a single child; handled by the caller's collapse.
            return Ok(child_count);
        };
        self.try_merge(parent, lhs, rhs, sep_idx)?;
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
                Node::Leaf { entries, .. } => entries.pop().expect("borrow from empty leaf"),
                Node::Branch { .. } => unreachable!(),
            })?;
            self.store.try_write(child, |n| {
                if let Node::Leaf { entries, .. } = n {
                    entries.insert(0, moved);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx - 1] = moved;
                }
            })?;
        } else {
            let (moved_child, new_sep) = self.store.try_write(left, |n| match n {
                Node::Branch { seps, children } => (
                    children.pop().expect("borrow from empty branch"),
                    seps.pop().expect("borrow from empty branch"),
                ),
                Node::Leaf { .. } => unreachable!(),
            })?;
            let old_sep = match self.store.try_read(parent)? {
                Node::Branch { seps, .. } => seps[idx - 1],
                Node::Leaf { .. } => unreachable!(),
            };
            self.store.try_write(child, |n| {
                if let Node::Branch { seps, children } = n {
                    seps.insert(0, old_sep);
                    children.insert(0, moved_child);
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
                Node::Leaf { entries, .. } => {
                    let moved = entries.remove(0);
                    (moved, entries[0])
                }
                Node::Branch { .. } => unreachable!(),
            })?;
            self.store.try_write(child, |n| {
                if let Node::Leaf { entries, .. } = n {
                    entries.push(moved);
                }
            })?;
            self.store.try_write(parent, |n| {
                if let Node::Branch { seps, .. } = n {
                    seps[idx] = new_first;
                }
            })?;
        } else {
            let (moved_child, new_sep) = self.store.try_write(right, |n| match n {
                Node::Branch { seps, children } => (children.remove(0), seps.remove(0)),
                Node::Leaf { .. } => unreachable!(),
            })?;
            let old_sep = match self.store.try_read(parent)? {
                Node::Branch { seps, .. } => seps[idx],
                Node::Leaf { .. } => unreachable!(),
            };
            self.store.try_write(child, |n| {
                if let Node::Branch { seps, children } = n {
                    seps.push(old_sep);
                    children.push(moved_child);
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

    /// Absorbs `rhs` into `lhs` (adjacent children of `parent`, with
    /// `seps[sep_idx]` between them) and frees `rhs`.
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
        // The counted read (the fault-in the model charges); the
        // contents come out of the free itself.
        self.store.try_read(rhs)?;
        match self.store.try_free(rhs)? {
            Node::Leaf { entries, next } => {
                self.store.try_write(lhs, |n| {
                    if let Node::Leaf {
                        entries: le,
                        next: ln,
                    } = n
                    {
                        le.extend(entries);
                        *ln = next;
                    }
                })?;
            }
            Node::Branch { seps, children } => {
                self.store.try_write(lhs, |n| {
                    if let Node::Branch {
                        seps: ls,
                        children: lc,
                    } = n
                    {
                        ls.push(sep);
                        ls.extend(seps);
                        lc.extend(children);
                    }
                })?;
            }
        }
        self.store.try_write(parent, |n| {
            if let Node::Branch { seps, children } = n {
                seps.remove(sep_idx);
                children.remove(sep_idx + 1);
            }
        })?;
        Ok(())
    }
}

/// An immutable snapshot of a [`BPlusTree`], published by
/// [`BPlusTree::freeze`].
///
/// Holds the frozen page table by `Arc`, so it is cheap to clone, is
/// `Send + Sync`, and stays valid after the live tree mutates (the live
/// tree copies pages on write) or is dropped entirely. Reads take
/// `&self`, bypass the buffer pool, and cannot fault — the external-
/// memory cost of a snapshot scan is reported to the caller as the
/// number of pages visited instead of through [`mobidx_pager::IoStats`].
#[derive(Debug, Clone)]
pub struct FrozenTree<K: Key, V: Copy + Ord + Debug> {
    pages: mobidx_pager::FrozenPages<Node<K, V>>,
    root: PageId,
    height: usize,
    len: usize,
}

impl<K: Key, V: Copy + Ord + Debug> FrozenTree<K, V> {
    /// Number of entries at freeze time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root page at freeze time.
    #[must_use]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of levels at freeze time (1 = root is a leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether both views hold the very same page allocations in every
    /// slot ([`mobidx_pager::FrozenPages::shares_pages_with`]).
    #[must_use]
    pub fn shares_pages_with(&self, other: &FrozenTree<K, V>) -> bool {
        self.pages.shares_pages_with(&other.pages)
    }

    /// Reads a frozen page; panics on a dangling id (structurally
    /// impossible for ids reached from the frozen root).
    fn page(&self, id: PageId) -> &Node<K, V> {
        self.pages.get(id).expect("frozen page missing")
    }

    /// Visits every entry with key in `[lo, hi]`, in key order, and
    /// returns the number of pages visited (the snapshot-read analogue
    /// of the query's I/O count).
    pub fn range_for_each(&self, lo: K, hi: K, mut visit: impl FnMut(K, V)) -> u64 {
        self.range_runs(lo, hi, |run| {
            for &(k, v) in run {
                visit(k, v);
            }
        })
    }

    /// Visits the entries with key in `[lo, hi]` as borrowed leaf runs
    /// and returns the number of pages visited.
    ///
    /// Mirrors [`BPlusTree::range_runs`] exactly, but over the frozen
    /// pages: same descent, same leaf-chain walk, same inclusive bounds.
    pub fn range_runs(&self, lo: K, hi: K, mut visit: impl FnMut(&[(K, V)])) -> u64 {
        if cmp_key(&lo, &hi) == Ordering::Greater {
            return 0;
        }
        let mut pages = 0u64;
        // Descend to the leftmost leaf that can contain `lo`.
        let mut node = self.root;
        for _ in 1..self.height {
            pages += 1;
            node = match self.page(node) {
                Node::Branch { seps, children } => children[branch_slot(seps, &lo)],
                Node::Leaf { .. } => unreachable!("leaf above leaf level"),
            };
        }
        // Walk the leaf chain; only the first leaf can start below `lo`.
        let mut current = Some(node);
        let mut lo = Some(&lo);
        while let Some(leaf) = current {
            pages += 1;
            let (entries, next) = match self.page(leaf) {
                Node::Leaf { entries, next } => (entries.as_slice(), *next),
                Node::Branch { .. } => unreachable!("branch at leaf level"),
            };
            let (run, done) = leaf_run(entries, lo.take(), &hi);
            if !run.is_empty() {
                visit(run);
            }
            current = if done { None } else { next };
        }
        pages
    }

    /// Reports every value whose key lies in `[lo, hi]`, in key order.
    #[must_use]
    pub fn range(&self, lo: K, hi: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range_runs(lo, hi, |run| out.extend_from_slice(run));
        out
    }
}

/// Where the exact entry `e` sits in a sorted page, if it is there.
fn find_entry<K: Key, V: Ord>(entries: &[(K, V)], e: &(K, V)) -> Option<usize> {
    let pos = page_search(entries, &e.0, |x| cmp_entry(x, e) == Ordering::Less);
    let equal = cmp_entry(entries.get(pos)?, e) == Ordering::Equal;
    equal.then_some(pos)
}

/// The child of a branch to follow for the leftmost entry with key
/// `>= lo`: the number of separators whose key is below `lo`.
fn branch_slot<K: Key, V>(seps: &[(K, V)], lo: &K) -> usize {
    page_search(seps, lo, |s| cmp_key(&s.0, lo) == Ordering::Less)
}

/// One leaf's share of a `[lo, hi]` scan: the sub-slice of `entries`
/// inside the range, and whether the scan ends at this leaf (an entry
/// above `hi` was seen). `lo` is passed for the first leaf of a walk
/// only — the descent guarantees every later leaf starts at or above it
/// — and the last key alone decides `hi`, so a leaf inside the range
/// costs one comparison instead of two per entry.
fn leaf_run<'a, K: Key, V>(entries: &'a [(K, V)], lo: Option<&K>, hi: &K) -> (&'a [(K, V)], bool) {
    let from = lo.map_or(0, |lo| {
        page_search(entries, lo, |e| cmp_key(&e.0, lo) == Ordering::Less)
    });
    let run = &entries[from..];
    match run.last() {
        Some(last) if cmp_key(&last.0, hi) == Ordering::Greater => {
            let to = page_search(run, hi, |e| cmp_key(&e.0, hi) != Ordering::Greater);
            (&run[..to], true)
        }
        _ => (run, false),
    }
}

/// Durable trees: when keys and values are [`FixedCodec`] scalars the
/// nodes have a byte image, so the tree can sit on a durable backend
/// ([`mobidx_pager::FileBackend`]), seal commit windows into its
/// write-ahead log, and reopen from whatever the log proves committed.
impl<K: Key + FixedCodec, V: Copy + Ord + Debug + FixedCodec> BPlusTree<K, V> {
    /// Opens a tree over a durable backend from the image its
    /// recovery produced. An empty image yields an empty tree (root
    /// allocated, first commit window open); otherwise every recovered
    /// page is decoded and the tree shape (root, height, length) comes
    /// from the commit metadata of the last durable window.
    ///
    /// Returns `None` if a recovered page or the metadata fails to
    /// decode — which a CRC-checked log only produces when the file
    /// belongs to a different page type or configuration.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (capacities < 2), as
    /// [`BPlusTree::new`] does.
    #[must_use]
    pub fn open_durable(
        cfg: TreeConfig,
        backend: Box<dyn Backend>,
        image: &RecoveredImage,
    ) -> Option<Self> {
        assert!(cfg.leaf_cap >= 2, "leaf capacity must be at least 2");
        assert!(cfg.branch_cap >= 3, "branch capacity must be at least 3");
        let mut store = PageStore::open_recovered(cfg.buffer_pages, backend, image)?;
        if image.is_empty() {
            let root = store.try_allocate(Node::empty_leaf()).ok()?;
            return Some(Self {
                store,
                root,
                height: 1,
                len: 0,
                cfg,
                pin_root: false,
            });
        }
        let (root, height, len) = Self::decode_meta(&image.meta)?;
        // The recovered root must be a live page.
        image.pages.get(root.index() as usize)?.as_ref()?;
        Some(Self {
            store,
            root,
            height,
            len,
            cfg,
            pin_root: false,
        })
    }

    /// Whether the tree sits on a durable backend (commits reach a
    /// write-ahead log).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// `(dirty pages, freed pages)` in the open commit window.
    #[must_use]
    pub fn pending_commit(&self) -> (usize, usize) {
        self.store.pending_commit()
    }

    /// Commits the current window: every node dirtied since the last
    /// commit, every freed page, and the tree shape (root, height,
    /// length) reach the write-ahead log under one group-commit fsync.
    /// No-op on non-durable backends.
    ///
    /// # Errors
    /// Propagates the first unabsorbed journal fault; the window is
    /// kept, so a later commit retries it in full (see
    /// [`PageStore::try_commit`]).
    pub fn try_commit(&mut self) -> Result<(), PagerError> {
        let meta = self.encode_meta();
        self.store.try_commit(&meta)
    }

    /// The first half of [`BPlusTree::try_commit`]: journals the window
    /// and the tree shape and starts its fsync without waiting for it
    /// ([`PageStore::try_seal`]). The tree takes no write until
    /// [`BPlusTree::try_settle`] has run. No-op on non-durable backends.
    ///
    /// # Errors
    /// As [`BPlusTree::try_commit`]; nothing is left to settle.
    pub fn try_seal(&mut self) -> Result<(), PagerError> {
        let meta = self.encode_meta();
        self.store.try_seal(&meta)
    }

    /// The second half of [`BPlusTree::try_commit`]: waits for the
    /// window [`BPlusTree::try_seal`] sealed to become durable
    /// ([`PageStore::try_settle`]). Returns at once when nothing is
    /// sealed.
    ///
    /// # Errors
    /// The backend's fault; the window is kept, as after a failed
    /// commit.
    pub fn try_settle(&mut self) -> Result<(), PagerError> {
        self.store.try_settle()
    }

    /// Writes a full checkpoint (every live node plus the tree shape)
    /// and truncates the write-ahead log. A checkpoint is itself a
    /// commit. No-op on non-durable backends.
    ///
    /// # Errors
    /// Propagates the backend's fault; a clean failure leaves the
    /// previous on-disk state intact (see [`PageStore::try_checkpoint`]).
    pub fn try_checkpoint(&mut self) -> Result<(), PagerError> {
        let meta = self.encode_meta();
        self.store.try_checkpoint(&meta)
    }

    /// Commit metadata: `[root: u32][height: u32][len: u64]`.
    fn encode_meta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        put_u32(&mut out, self.root.index());
        put_u32(
            &mut out,
            u32::try_from(self.height).expect("height exceeds u32"),
        );
        put_u64(&mut out, self.len as u64);
        out
    }

    fn decode_meta(bytes: &[u8]) -> Option<(PageId, usize, usize)> {
        let mut r = ByteReader::new(bytes);
        let root = PageId::from_index(r.u32()?);
        let height = r.u32()? as usize;
        let len = usize::try_from(r.u64()?).ok()?;
        if !r.is_empty() || height == 0 {
            return None;
        }
        Some((root, height, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TreeConfig {
        TreeConfig {
            leaf_cap: 4,
            branch_cap: 4,
            buffer_pages: 4,
        }
    }

    #[test]
    fn insert_and_range() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        for i in 0..100u64 {
            #[allow(clippy::cast_precision_loss)]
            t.insert((i % 10) as f64, i);
        }
        t.check_invariants(true);
        assert_eq!(t.len(), 100);
        let hits = t.try_range(3.0, 4.0).unwrap();
        assert_eq!(hits.len(), 20);
        assert!(hits.iter().all(|&(k, _)| (3.0..=4.0).contains(&k)));
        // Results are in (key, value) order.
        assert!(hits.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        assert!(t.is_empty());
        assert_eq!(t.try_range(0.0, 100.0).unwrap(), vec![]);
        assert!(!t.remove(1.0, 1));
        assert!(!t.try_contains(1.0, 1).unwrap());
        t.check_invariants(true);
    }

    #[test]
    fn frozen_view_matches_live_and_survives_mutation() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        for i in 0..100u64 {
            #[allow(clippy::cast_precision_loss)]
            t.insert((i % 10) as f64, i);
        }
        let snap = t.freeze();
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.range(3.0, 4.0), t.try_range(3.0, 4.0).unwrap());
        assert_eq!(snap.range(-1.0, 100.0), t.try_range(-1.0, 100.0).unwrap());
        assert_eq!(snap.range(5.0, 4.0), vec![]);
        // Mutations after the freeze are invisible to the snapshot …
        for i in 100..300u64 {
            #[allow(clippy::cast_precision_loss)]
            t.insert((i % 10) as f64, i);
        }
        for v in 0..100u64 {
            #[allow(clippy::cast_precision_loss)]
            t.remove((v % 10) as f64, v);
        }
        t.check_invariants(true);
        let frozen: Vec<u64> = snap.range(0.0, 10.0).iter().map(|&(_, v)| v).collect();
        let mut expect: Vec<u64> = (0..100).collect();
        expect.sort_by_key(|&v| (v % 10, v));
        assert_eq!(frozen, expect);
        // … and a page-count is reported (root-to-leaf path + leaves).
        let mut pages = 0;
        let visited = snap.range_for_each(0.0, 10.0, |_, _| pages += 1);
        assert_eq!(pages, 100);
        assert!(visited > 1, "multi-level scan must touch several pages");
        // The snapshot outlives the tree.
        drop(t);
        assert_eq!(snap.range(3.0, 3.0).len(), 10);
    }

    /// The per-entry scan the leaf-run walk replaced, kept as the
    /// reference (over uncounted `peek`s): the entries it reports and
    /// the pages it visits.
    fn per_entry_scan(t: &BPlusTree<f64, u64>, lo: f64, hi: f64) -> (Vec<(f64, u64)>, u64) {
        let mut out = Vec::new();
        if cmp_key(&lo, &hi) == Ordering::Greater {
            return (out, 0);
        }
        let mut pages = 0u64;
        let mut node = t.root;
        for _ in 1..t.height {
            pages += 1;
            node = match t.store.peek(node) {
                Node::Branch { seps, children } => {
                    let idx = seps.partition_point(|s| cmp_key(&s.0, &lo) == Ordering::Less);
                    children[idx]
                }
                Node::Leaf { .. } => unreachable!("leaf above leaf level"),
            };
        }
        let mut current = Some(node);
        while let Some(leaf) = current {
            pages += 1;
            let (entries, next) = match t.store.peek(leaf) {
                Node::Leaf { entries, next } => (entries, *next),
                Node::Branch { .. } => unreachable!("branch at leaf level"),
            };
            for &(k, v) in entries {
                match cmp_key(&k, &hi) {
                    Ordering::Greater => return (out, pages),
                    _ => {
                        if cmp_key(&k, &lo) != Ordering::Less {
                            out.push((k, v));
                        }
                    }
                }
            }
            current = next;
        }
        (out, pages)
    }

    #[test]
    fn leaf_runs_report_the_entries_and_visit_the_pages_of_the_per_entry_scan() {
        // Duplicate-heavy keys over 4-entry leaves, churned by deletes;
        // bounds on and between keys, equal, inverted and unbounded.
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (z >> 33) % m
        };
        for round in 0..6u64 {
            for i in 0..150 {
                #[allow(clippy::cast_precision_loss)]
                t.insert(next(24) as f64, round * 1000 + i);
            }
            for (k, v) in t.collect_all() {
                if next(3) == 0 {
                    assert!(t.remove(k, v));
                }
            }
            t.check_invariants(true);
            let frozen = t.freeze();
            for _ in 0..200 {
                #[allow(clippy::cast_precision_loss)]
                let bound = |pick: u64| match pick {
                    0 => f64::NEG_INFINITY,
                    1 => f64::INFINITY,
                    2 => -0.0,
                    p => (p - 2) as f64 / 2.0,
                };
                let (lo, hi) = (bound(next(52)), bound(next(52)));
                let (want, want_pages) = per_entry_scan(&t, lo, hi);

                let mut got = Vec::new();
                let pages = frozen.range_runs(lo, hi, |run| got.extend_from_slice(run));
                assert_eq!(
                    (got, pages),
                    (want.clone(), want_pages),
                    "frozen [{lo}, {hi}]"
                );

                t.store_mut().try_clear_buffer().unwrap();
                let before = t.store().stats().reads();
                let mut got = Vec::new();
                t.range_runs(lo, hi, |run| got.extend_from_slice(run))
                    .unwrap();
                let reads = t.store().stats().reads() - before;
                assert_eq!((got, reads), (want, want_pages), "live [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        t.insert(1.0, 1);
        assert_eq!(t.try_range(5.0, 4.0).unwrap(), vec![]);
    }

    #[test]
    fn remove_exact_entry_among_duplicate_keys() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        for v in 0..50u64 {
            t.insert(7.0, v);
        }
        assert!(t.try_contains(7.0, 23).unwrap());
        assert!(t.remove(7.0, 23));
        assert!(!t.try_contains(7.0, 23).unwrap());
        assert!(!t.remove(7.0, 23), "double delete must fail");
        assert_eq!(t.len(), 49);
        t.check_invariants(true);
    }

    #[test]
    fn insert_delete_churn_keeps_invariants() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        // Insert 0..200, delete the evens, reinsert some.
        for i in 0..200u64 {
            t.insert(i / 3, i);
        }
        t.check_invariants(true);
        for i in (0..200u64).step_by(2) {
            assert!(t.remove(i / 3, i), "missing {i}");
            t.check_invariants(true);
        }
        assert_eq!(t.len(), 100);
        for i in (0..50u64).step_by(2) {
            t.insert(i / 3, i);
        }
        t.check_invariants(true);
        assert_eq!(t.len(), 125);
        let all = t.collect_all();
        assert_eq!(all.len(), 125);
    }

    #[test]
    fn delete_everything_collapses_to_empty_root() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        for i in 0..64u64 {
            t.insert(i, i);
        }
        assert!(t.height() > 1);
        for i in 0..64u64 {
            assert!(t.remove(i, i));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants(true);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i / 7, i)).collect();
        let t = BPlusTree::bulk_load(small_cfg(), &entries, 0.8);
        t.check_invariants(false);
        assert_eq!(t.len(), 500);
        assert_eq!(t.collect_all(), entries);
    }

    #[test]
    fn bulk_load_empty() {
        let t: BPlusTree<u64, u64> = BPlusTree::bulk_load(small_cfg(), &[], 0.8);
        assert!(t.is_empty());
        t.check_invariants(true);
    }

    #[test]
    fn bulk_loaded_tree_supports_updates() {
        let entries: Vec<(u64, u64)> = (0..300u64).map(|i| (i, i)).collect();
        let mut t = BPlusTree::bulk_load(small_cfg(), &entries, 0.6);
        for i in 0..300u64 {
            if i % 3 == 0 {
                assert!(t.remove(i, i));
            }
        }
        t.insert(1000, 1000);
        t.check_invariants(false);
        assert_eq!(t.len(), 201);
    }

    #[test]
    fn range_scan_costs_scale_with_output() {
        // With the buffer cleared, a range scan over many leaves must cost
        // ~height + leaves I/Os.
        let cfg = TreeConfig {
            leaf_cap: 8,
            branch_cap: 8,
            buffer_pages: 4,
        };
        let entries: Vec<(u64, u64)> = (0..1024u64).map(|i| (i, i)).collect();
        let mut t = BPlusTree::bulk_load(cfg, &entries, 1.0);
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        let hits = t.try_range(0, 1023).unwrap();
        assert_eq!(hits.len(), 1024);
        let cost = t.store().stats().reads() - reads;
        let leaves = 1024 / 8;
        // height-1 branch reads + all leaves.
        let expected = (t.height() as u64 - 1) + leaves as u64;
        assert_eq!(cost, expected);
    }

    #[test]
    fn point_lookup_costs_height() {
        let entries: Vec<(u64, u64)> = (0..4096u64).map(|i| (i, i)).collect();
        let cfg = TreeConfig {
            leaf_cap: 16,
            branch_cap: 16,
            buffer_pages: 4,
        };
        let mut t = BPlusTree::bulk_load(cfg, &entries, 1.0);
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        assert!(t.try_contains(2048, 2048).unwrap());
        let cost = t.store().stats().reads() - reads;
        assert_eq!(cost, t.height() as u64);
    }

    #[test]
    fn batch_insert_matches_sequential() {
        // Interleaved keys with heavy duplication, pushed in batches.
        let entries: Vec<(u64, u64)> = (0..400u64).map(|i| ((i * 7) % 50, i)).collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();

        let mut sequential: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        for &(k, v) in &entries {
            sequential.insert(k, v);
        }
        let mut batched: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        for chunk in sorted.chunks(37) {
            batched.try_insert_batch(chunk).unwrap();
            batched.check_invariants(true);
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.collect_all(), sequential.collect_all());
        assert_eq!(
            batched.try_range(3, 9).unwrap(),
            sequential.try_range(3, 9).unwrap()
        );
    }

    #[test]
    fn batch_insert_empty_and_single() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        t.try_insert_batch(&[]).unwrap();
        assert!(t.is_empty());
        t.try_insert_batch(&[(5, 5)]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.try_contains(5, 5).unwrap());
        t.check_invariants(true);
    }

    #[test]
    fn batch_insert_multi_split_from_empty_root() {
        // One batch far larger than a leaf forces a multi-way split of
        // the root leaf and possibly several new root levels at once.
        let sorted: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i)).collect();
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        t.try_insert_batch(&sorted).unwrap();
        t.check_invariants(true);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.collect_all(), sorted);
        assert!(t.height() > 2);
    }

    #[test]
    fn batch_insert_duplicate_entries_tolerated() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        t.try_insert_batch(&[(1, 1), (1, 1), (1, 1), (2, 2)])
            .unwrap();
        t.check_invariants(true);
        assert_eq!(t.len(), 4);
        assert!(t.remove(1, 1));
        assert_eq!(t.len(), 3);
        t.check_invariants(true);
    }

    #[test]
    fn batch_insert_into_bulk_loaded_tree() {
        let base: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 2, i)).collect();
        let mut t = BPlusTree::bulk_load(small_cfg(), &base, 0.9);
        let odds: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 2 + 1, i)).collect();
        t.try_insert_batch(&odds).unwrap();
        t.check_invariants(false);
        assert_eq!(t.len(), 1024);
        let all = t.collect_all();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_leaf_batch_costs_one_descent_and_one_dirty_page() {
        // k entries that all land in one (non-overflowing) leaf must cost
        // exactly `height` cold reads and dirty exactly one page.
        let cfg = TreeConfig {
            leaf_cap: 32,
            branch_cap: 8,
            buffer_pages: 4,
        };
        let base: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 100, i)).collect();
        let mut t = BPlusTree::bulk_load(cfg, &base, 0.5);
        t.store_mut().try_clear_buffer().unwrap();
        let (reads, writes) = (t.store().stats().reads(), t.store().stats().writes());
        // Eight entries wedged between keys 1000 and 1100: one leaf.
        let batch: Vec<(u64, u64)> = (0..8u64).map(|i| (1001 + i, 9000 + i)).collect();
        t.try_insert_batch(&batch).unwrap();
        t.store_mut().try_clear_buffer().unwrap();
        let stats = t.store().stats();
        assert_eq!(
            stats.reads() - reads,
            t.height() as u64,
            "one descent for the batch"
        );
        assert_eq!(stats.writes() - writes, 1, "one dirty leaf written back");
        t.check_invariants(false);
    }

    #[test]
    fn apply_batch_removes_then_inserts() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        for i in 0..200u64 {
            t.insert(i, i);
        }
        let removes: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 2, i * 2)).collect();
        let inserts: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 4 + 1000, i)).collect();
        let removed = t.apply_batch(&removes, &inserts);
        assert_eq!(removed, 100);
        assert_eq!(t.len(), 150);
        t.check_invariants(true);
        // Removing an absent entry is counted as not found.
        assert_eq!(t.apply_batch(&[(9999, 9999)], &[]), 0);
    }

    #[test]
    fn leaf_links_checked_after_churn() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(small_cfg());
        let batch: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 60, i)).collect();
        let mut sorted = batch;
        sorted.sort_unstable();
        t.try_insert_batch(&sorted).unwrap();
        t.check_leaf_links();
        for i in (0..300u64).step_by(3) {
            assert!(t.remove(i % 60, i));
            t.check_leaf_links();
        }
        t.check_invariants(true);
    }

    #[test]
    fn negative_and_fractional_keys() {
        let mut t: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        t.insert(-3.5, 1);
        t.insert(-0.1, 2);
        t.insert(0.0, 3);
        t.insert(2.25, 4);
        let hits = t.try_range(-1.0, 1.0).unwrap();
        assert_eq!(hits, vec![(-0.1, 2), (0.0, 3)]);
    }
}
