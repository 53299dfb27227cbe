//! # mobidx-bptree — a paged B+-tree in the external-memory model
//!
//! The practical index of the paper's §3.5.2 stores the Hough-Y dual
//! `b`-coordinates of all mobile objects in `c` plain B+-trees ("each of
//! the c observation indices can simply be a B+-tree \[13\]"). This crate
//! provides that B+-tree, built on [`mobidx_pager`]'s I/O-counted page
//! store:
//!
//! * entries are `(key, value)` pairs ordered **lexicographically** —
//!   values act as tie-breakers, so every entry is unique and deletions
//!   are exact even with massively duplicated keys;
//! * leaves are chained for `O(k/B)` range scans;
//! * deletion rebalances (borrow from a sibling, else merge), keeping
//!   every node at least half full, so the space numbers of Figure 8 are
//!   honest;
//! * [`BPlusTree::bulk_load`] builds a tree from sorted entries at a
//!   chosen fill factor (used when an observation index is re-based).
//!
//! Page capacity comes from the paper's arithmetic: a 12-byte entry
//! (4-byte `b`-coordinate, 4-byte speed, 4-byte pointer) on a 4096-byte
//! page gives `B = 341` ([`paper_leaf_capacity`]). In memory a dual-B+
//! leaf entry is wider: an `f64` key and a `(u64, u64)` value (speed
//! bits, object id), 24 bytes, so a full B = 341 leaf is ≈ 8 KB. That is
//! what an update pays for: a search into a cold 8 KB leaf and a shift
//! of the entries above the slot, once to remove and once to insert in
//! each of the `c` trees. Every search inside a page goes through one
//! interpolation-guided search that returns exactly the position a
//! binary search does (see [`Key::position`]), so the pages touched and
//! their order are those of a binary search.

mod node;
mod search;
mod tree;

pub use node::Node;
pub use tree::{BPlusTree, FrozenTree, TreeConfig};

use mobidx_pager::{page_capacity, DEFAULT_PAGE_SIZE};

/// The leaf capacity used in the paper's experiments (§5): 12-byte
/// entries on 4096-byte pages ⇒ B = 341.
#[must_use]
pub fn paper_leaf_capacity() -> usize {
    page_capacity(DEFAULT_PAGE_SIZE, 12)
}

/// A key usable in the tree: totally ordered in practice (`f64` keys must
/// not be NaN), copiable, printable, and placeable on a line.
pub trait Key: Copy + PartialOrd + std::fmt::Debug {
    /// Where the key sits on the real line, for the in-page search's
    /// first probe: any map into `f64` that is **monotone
    /// non-decreasing** in the key order (`a <= b` implies
    /// `a.position() <= b.position()`). Precision loss is fine — equal
    /// positions for distinct keys, as for `u64` keys above 2⁵³, only
    /// make the guess coarser. The map never decides an answer; the
    /// search stays exact (and touches the same pages) whatever it
    /// returns, it is merely fastest when positions are spread evenly.
    fn position(&self) -> f64;
}

impl Key for f64 {
    fn position(&self) -> f64 {
        *self
    }
}

impl Key for u64 {
    #[allow(clippy::cast_precision_loss)]
    fn position(&self) -> f64 {
        *self as f64
    }
}

impl Key for u32 {
    fn position(&self) -> f64 {
        f64::from(*self)
    }
}

/// Compares two keys, panicking on incomparable values (NaN keys are a
/// caller bug — dual transforms never produce them).
pub(crate) fn cmp_key<K: Key>(a: &K, b: &K) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("non-total key order (NaN key?)")
}

/// Lexicographic comparison of `(key, value)` entries.
pub(crate) fn cmp_entry<K: Key, V: Ord>(a: &(K, V), b: &(K, V)) -> std::cmp::Ordering {
    cmp_key(&a.0, &b.0).then_with(|| a.1.cmp(&b.1))
}

#[cfg(test)]
mod capacity_tests {
    use super::paper_leaf_capacity;

    #[test]
    fn paper_capacity_is_341() {
        assert_eq!(paper_leaf_capacity(), 341);
    }
}
