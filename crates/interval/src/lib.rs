//! # mobidx-interval — an external-memory interval index
//!
//! §3.5.2 of the paper (case ii) indexes, per *subterrain*, "the time
//! interval when a moving object was in the subterrain", so that a wide
//! MOR query can be decomposed into per-subterrain subqueries answered
//! with zero approximation error (`E = 0`). The paper proposes the
//! external-memory Interval tree of Arge & Vitter \[5\] for this.
//!
//! **Substitution (documented in DESIGN.md):** this crate implements the
//! *max-end-augmented B+-tree* formulation instead — intervals keyed by
//! start time, every branch entry annotated with the maximum end time in
//! its subtree. It has the same interface, linear space, `O(log_B n)`
//! amortized updates, and `O(log_B n + k)` *expected* stabbing/window
//! queries on the paper's workloads (interval starts are near-uniform in
//! time); only the adversarial worst case is weaker than Arge–Vitter.
//!
//! Entries are 12 bytes conceptually (start + end + pointer), so a
//! 4096-byte page holds 341 of them — the same arithmetic as the paper's
//! B+-trees.

mod tree;

pub use tree::{IntervalConfig, IntervalTree};

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn basic_window() {
        let mut t: IntervalTree<u64> = IntervalTree::new(IntervalConfig::default());
        t.try_insert(0.0, 10.0, 1).unwrap();
        t.try_insert(5.0, 7.0, 2).unwrap();
        t.try_insert(20.0, 30.0, 3).unwrap();
        let mut hits = t.try_window(6.0, 8.0).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(t.try_stab(25.0).unwrap(), vec![3]);
        assert_eq!(t.try_stab(15.0).unwrap(), vec![]);
    }
}
