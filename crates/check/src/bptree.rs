//! B+-tree vs `BTreeSet`.

use crate::driver::{agree, arm, ask_clean, ModelTarget, Run, Tally};
use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_pager::PagerError;
use std::collections::BTreeSet;

/// The harness's small nodes: at oracle scale, page-capacity leaves
/// would never miss the buffer pools and no fault plan could ever fire.
pub(crate) fn bptree_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 16,
        branch_cap: 8,
        buffer_pages: 4,
    }
}

/// Duplicate-prone key domain (shared with the durable target).
pub(crate) const KEYS: u64 = 64;

/// The oracle's answer to a key-range query (shared likewise).
pub(crate) fn in_range(oracle: &BTreeSet<(u64, u64)>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    oracle.range((lo, 0)..=(hi, u64::MAX)).copied().collect()
}

pub(crate) struct BptreeTarget {
    oracle: BTreeSet<(u64, u64)>,
    tree: BPlusTree<u64, u64>,
    next_val: u64,
}

fn rebuild(oracle: &BTreeSet<(u64, u64)>) -> BPlusTree<u64, u64> {
    let entries: Vec<(u64, u64)> = oracle.iter().copied().collect();
    if entries.is_empty() {
        BPlusTree::new(bptree_cfg())
    } else {
        BPlusTree::bulk_load(bptree_cfg(), &entries, 0.7)
    }
}

impl ModelTarget for BptreeTarget {
    const NAME: &'static str = "bptree";
    const SALT: u64 = 1;

    fn build(run: &mut Run) -> Result<Self, String> {
        let mut tree = BPlusTree::new(bptree_cfg());
        arm(tree.store_mut(), &run.cfg, 0);
        Ok(Self {
            oracle: BTreeSet::new(),
            tree,
            next_val: 0,
        })
    }

    fn step(&mut self, run: &mut Run) -> Result<usize, String> {
        let Run { rng, report, .. } = run;
        let roll = rng.below(100);
        let done: Result<(), PagerError> = if roll < 10 {
            // Grouped insert through the batched write path (sorted,
            // multi-leaf batches exercise the multi-way split).
            let count = 1 + rng.below(12) as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push((rng.below(KEYS), self.next_val));
                self.next_val += 1;
            }
            entries.sort_unstable();
            self.tree
                .try_insert_batch(&entries)
                .map(|()| self.oracle.extend(entries))
        } else if roll < 45 {
            // Insert a duplicate-prone key with a unique value.
            let entry = (rng.below(KEYS), self.next_val);
            self.next_val += 1;
            self.tree.try_insert(entry.0, entry.1).map(|()| {
                self.oracle.insert(entry);
            })
        } else if roll < 70 && !self.oracle.is_empty() {
            // Remove an entry the oracle says is present.
            let n = rng.below(self.oracle.len() as u64) as usize;
            let &(key, val) = self.oracle.iter().nth(n).expect("indexed oracle entry");
            let removed = self.tree.try_remove(key, val);
            if let Ok(false) = removed {
                return Err(format!(
                    "present pair ({key}, {val}) reported absent on remove"
                ));
            }
            removed.map(|_| {
                self.oracle.remove(&(key, val));
            })
        } else {
            let lo = rng.below(KEYS);
            let hi = lo + rng.below(16);
            let mut got = ask_clean(report, &mut self.tree, BPlusTree::store_mut, |t| {
                t.try_range(lo, hi)
            });
            got.sort_unstable();
            let want = in_range(&self.oracle, lo, hi);
            agree(format_args!("range [{lo}, {hi}]"), &got, &want)?;
            Ok(())
        };
        Ok(usize::from(done.is_err()))
    }

    fn spent(&self) -> Tally {
        Tally::of(self.tree.store().stats())
    }

    fn recover(&mut self, run: &mut Run) -> Result<(), String> {
        self.tree = rebuild(&self.oracle);
        arm(self.tree.store_mut(), &run.cfg, run.round);
        Ok(())
    }

    /// Leaf-link invariant: after any run of mutations the sibling chain
    /// must be exactly the in-order leaf sequence — no dangling, skipped,
    /// or cyclic link survives splits, merges, or underflow fixes.
    /// (Uncounted peek access; cannot fault.) The tree asserts it; the
    /// panic becomes the divergence detail.
    fn invariant(&self) -> Result<(), String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.tree.check_leaf_links()
        }))
        .map_err(|cause| {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            format!("leaf-link invariant violated: {msg}")
        })
    }
}
