//! Interval tree, kd-tree and R*-tree vs brute force over an id table.
//!
//! The three share one oracle (`id → item`) and one grammar — 45 %
//! insert, 25 % remove a live id, 30 % query — and differ only in what
//! an item and a query are; [`Spatial`], implemented on the tree types
//! themselves, is that difference.

use crate::driver::{agree, arm, ask_clean, ModelTarget, Run, Tally};
use crate::SplitMix;
use mobidx_geom::{Aabb, Rect2};
use mobidx_interval::{IntervalConfig, IntervalTree};
use mobidx_kdtree::{KdConfig, KdTree};
use mobidx_pager::{PagerError, Store};
use mobidx_rstar::{RStarConfig, RStarTree};
use std::collections::HashMap;
use std::fmt::Debug;

/// One id-keyed spatial index: its items, its queries, and the exact
/// order both draw from the stream.
pub(crate) trait Spatial: Sized {
    const NAME: &'static str;
    const SALT: u64;
    type Item: Copy + Debug;
    type Query: Debug;

    /// The tree's page store, shared and mutable.
    fn store(&self) -> &dyn Store;
    fn store_mut(&mut self) -> &mut dyn Store;
    fn empty() -> Self;
    fn item(rng: &mut SplitMix) -> Self::Item;
    fn query(rng: &mut SplitMix) -> Self::Query;
    fn hits(item: &Self::Item, q: &Self::Query) -> bool;
    fn try_put(&mut self, item: Self::Item, id: u64) -> Result<(), PagerError>;
    fn try_take(&mut self, item: Self::Item, id: u64) -> Result<bool, PagerError>;
    fn try_ask(&mut self, q: &Self::Query) -> Result<Vec<u64>, PagerError>;
}

pub(crate) struct SpatialTarget<T: Spatial> {
    oracle: HashMap<u64, T::Item>,
    live: Vec<u64>,
    tree: T,
    next_id: u64,
}

impl<T: Spatial> ModelTarget for SpatialTarget<T> {
    const NAME: &'static str = T::NAME;
    const SALT: u64 = T::SALT;

    fn build(run: &mut Run) -> Result<Self, String> {
        let mut tree = T::empty();
        arm(tree.store_mut(), &run.cfg, 0);
        Ok(Self {
            oracle: HashMap::new(),
            live: Vec::new(),
            tree,
            next_id: 0,
        })
    }

    fn step(&mut self, run: &mut Run) -> Result<usize, String> {
        let Run { rng, report, .. } = run;
        let roll = rng.below(100);
        let done: Result<(), PagerError> = if roll < 45 {
            let item = T::item(rng);
            let id = self.next_id;
            self.next_id += 1;
            self.tree.try_put(item, id).map(|()| {
                self.oracle.insert(id, item);
                self.live.push(id);
            })
        } else if roll < 70 && !self.live.is_empty() {
            let n = rng.below(self.live.len() as u64) as usize;
            let id = self.live[n];
            let item = self.oracle[&id];
            let removed = self.tree.try_take(item, id);
            if let Ok(false) = removed {
                return Err(format!(
                    "present {item:?} (id {id}) reported absent on remove"
                ));
            }
            removed.map(|_| {
                self.oracle.remove(&id);
                self.live.swap_remove(n);
            })
        } else {
            let q = T::query(rng);
            let hits = self.oracle.iter().filter(|(_, item)| T::hits(item, &q));
            let mut want: Vec<u64> = hits.map(|(&id, _)| id).collect();
            want.sort_unstable();
            let mut got = ask_clean(report, &mut self.tree, T::store_mut, |tree| {
                tree.try_ask(&q)
            });
            got.sort_unstable();
            agree(format_args!("query {q:?}"), &got, &want)?;
            Ok(())
        };
        Ok(usize::from(done.is_err()))
    }

    fn spent(&self) -> Tally {
        Tally::of(self.tree.store().stats())
    }

    fn recover(&mut self, run: &mut Run) -> Result<(), String> {
        self.tree = T::empty();
        // Sorted order keeps rebuilds (and hence page layout and fault
        // alignment) deterministic across runs of the same seed.
        let mut entries: Vec<(u64, T::Item)> = self.oracle.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for (id, item) in entries {
            let put = self.tree.try_put(item, id);
            put.expect("a rebuild runs before its store is armed");
        }
        arm(self.tree.store_mut(), &run.cfg, run.round);
        Ok(())
    }
}

/// Interval tree: `(start, end)` on a grid of halves, which keeps every
/// comparison exact; queried by a time window.
impl Spatial for IntervalTree<u64> {
    const NAME: &'static str = "interval";
    const SALT: u64 = 2;
    type Item = (f64, f64);
    type Query = (f64, f64);

    fn store(&self) -> &dyn Store {
        IntervalTree::store(self)
    }
    fn store_mut(&mut self) -> &mut dyn Store {
        IntervalTree::store_mut(self)
    }
    fn empty() -> Self {
        IntervalTree::new(IntervalConfig::small(8, 4))
    }
    fn item(rng: &mut SplitMix) -> Self::Item {
        let start = rng.below(1000) as f64 * 0.5;
        (start, start + rng.below(120) as f64 * 0.5)
    }
    fn query(rng: &mut SplitMix) -> Self::Query {
        let t1 = rng.below(1100) as f64 * 0.5;
        (t1, t1 + rng.below(60) as f64 * 0.5)
    }
    fn hits(&(start, end): &Self::Item, &(t1, t2): &Self::Query) -> bool {
        start <= t2 && end >= t1
    }
    fn try_put(&mut self, (start, end): Self::Item, id: u64) -> Result<(), PagerError> {
        self.try_insert(start, end, id)
    }
    fn try_take(&mut self, (start, end): Self::Item, id: u64) -> Result<bool, PagerError> {
        self.try_remove(start, end, id)
    }
    fn try_ask(&mut self, &(t1, t2): &Self::Query) -> Result<Vec<u64>, PagerError> {
        self.try_window(t1, t2)
    }
}

/// kd-tree: integer points, queried by a box.
impl Spatial for KdTree<2, u64> {
    const NAME: &'static str = "kdtree";
    const SALT: u64 = 3;
    type Item = [f64; 2];
    type Query = Aabb<2>;

    fn store(&self) -> &dyn Store {
        KdTree::store(self)
    }
    fn store_mut(&mut self) -> &mut dyn Store {
        KdTree::store_mut(self)
    }
    fn empty() -> Self {
        KdTree::new(KdConfig::small(8, 4))
    }
    fn item(rng: &mut SplitMix) -> Self::Item {
        [rng.below(500) as f64, rng.below(500) as f64]
    }
    fn query(rng: &mut SplitMix) -> Self::Query {
        let [x, y] = Self::item(rng);
        let w = rng.below(120) as f64;
        let h = rng.below(120) as f64;
        Aabb::new([x, y], [x + w, y + h])
    }
    fn hits(item: &Self::Item, q: &Self::Query) -> bool {
        q.contains(item)
    }
    fn try_put(&mut self, point: Self::Item, id: u64) -> Result<(), PagerError> {
        self.try_insert(point, id)
    }
    fn try_take(&mut self, point: Self::Item, id: u64) -> Result<bool, PagerError> {
        self.try_remove(point, id)
    }
    fn try_ask(&mut self, q: &Self::Query) -> Result<Vec<u64>, PagerError> {
        let points = self.try_query_collect(q)?;
        Ok(points.into_iter().map(|(_, id)| id).collect())
    }
}

/// An integer rectangle: corner below `800`, sides below `extent`.
fn rect(rng: &mut SplitMix, extent: u64) -> Rect2 {
    let x = rng.below(800) as f64;
    let y = rng.below(800) as f64;
    let w = rng.below(extent) as f64;
    let h = rng.below(extent) as f64;
    Rect2::from_bounds(x, y, x + w, y + h)
}

/// R*-tree: integer rectangles, queried by a window.
impl Spatial for RStarTree<u64> {
    const NAME: &'static str = "rstar";
    const SALT: u64 = 4;
    type Item = Rect2;
    type Query = Rect2;

    fn store(&self) -> &dyn Store {
        RStarTree::store(self)
    }
    fn store_mut(&mut self) -> &mut dyn Store {
        RStarTree::store_mut(self)
    }
    fn empty() -> Self {
        RStarTree::new(RStarConfig::with_max(8))
    }
    fn item(rng: &mut SplitMix) -> Self::Item {
        rect(rng, 40)
    }
    fn query(rng: &mut SplitMix) -> Self::Query {
        rect(rng, 200)
    }
    fn hits(item: &Self::Item, q: &Self::Query) -> bool {
        item.intersects(q)
    }
    fn try_put(&mut self, mbr: Self::Item, id: u64) -> Result<(), PagerError> {
        self.try_insert(mbr, id)
    }
    fn try_take(&mut self, mbr: Self::Item, id: u64) -> Result<bool, PagerError> {
        self.try_remove(mbr, id)
    }
    fn try_ask(&mut self, q: &Self::Query) -> Result<Vec<u64>, PagerError> {
        let rects = self.try_search(q)?;
        Ok(rects.into_iter().map(|(_, id)| id).collect())
    }
}
