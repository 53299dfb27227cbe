//! K-way merge of per-shard answers.
//!
//! Each shard returns its ids sorted and deduplicated (the [`Index1D`]
//! query contract); the facade merges the lists back into one sorted,
//! deduplicated answer — the same contract a single index would have
//! produced, so callers cannot tell a sharded database from a plain one.
//!
//! The merge itself is `mobidx-core`'s id-assembly kernel
//! ([`mobidx_core::ids`]); it is re-exported here under its historical
//! path and serves the queued read path, whose workers answer in sorted
//! lists. Snapshot legs answer in [`IdSet`]s instead and fan in through
//! [`union`], which ORs dense legs' bitmaps and writes the ids once.
//!
//! [`IdSet`]: mobidx_core::ids::IdSet
//! [`union`]: mobidx_core::ids::union
//!
//! [`Index1D`]: mobidx_core::Index1D

pub use mobidx_core::merge_sorted_ids;

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(lists: &[Vec<u64>]) -> Vec<u64> {
        let mut out = Vec::new();
        merge_sorted_ids(lists, &mut out);
        out
    }

    #[test]
    fn merges_disjoint_lists() {
        let lists = vec![vec![1, 4, 9], vec![2, 3], vec![], vec![5]];
        assert_eq!(merged(&lists), vec![1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn collapses_cross_list_duplicates() {
        let lists = vec![vec![1, 2, 7], vec![2, 7, 8], vec![7]];
        assert_eq!(merged(&lists), vec![1, 2, 7, 8]);
    }

    #[test]
    fn degenerate_shapes() {
        assert!(merged(&[]).is_empty());
        assert!(merged(&[vec![], vec![]]).is_empty());
        assert_eq!(merged(&[vec![3, 5]]), vec![3, 5]);
    }

    #[test]
    fn matches_sort_dedup_oracle() {
        // Deterministic pseudo-random split of 0..400 into 5 lists with
        // some overlap.
        let mut lists = vec![Vec::new(); 5];
        let mut z: u64 = 0xDEAD_BEEF;
        let mut all = Vec::new();
        for id in 0..400u64 {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = (z >> 33) as usize % 5;
            let b = (z >> 13) as usize % 5;
            lists[a].push(id);
            if a != b && z % 3 == 0 {
                lists[b].push(id); // overlap
            }
            all.push(id);
        }
        let merged = merged(&lists);
        assert_eq!(merged, all);
    }
}
