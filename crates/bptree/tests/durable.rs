//! Durable B+-tree round trips: commit windows against a real
//! [`FileBackend`], crash-and-reopen, and the invariant that a
//! recovered tree equals the last committed one.

use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_pager::{DurableFaultStore, FaultPlan, FileBackend, FsyncPolicy, ScratchDir};
use std::path::Path;

fn small_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 4,
        branch_cap: 4,
        buffer_pages: 4,
    }
}

fn open_tree(dir: &Path) -> BPlusTree<u64, u64> {
    let (backend, image) = FileBackend::open(dir, FsyncPolicy::OnCommit).expect("open backend");
    BPlusTree::open_durable(small_cfg(), Box::new(backend), &image)
        .expect("recovered image must decode")
}

#[test]
fn committed_tree_survives_reopen() {
    let dir = ScratchDir::new("bptree-roundtrip");
    let expected;
    {
        let mut t = open_tree(&dir);
        assert!(t.is_durable());
        for i in 0..200u64 {
            t.insert((i * 7) % 50, i);
        }
        for i in (0..200u64).step_by(3) {
            assert!(t.remove((i * 7) % 50, i));
        }
        t.try_commit().unwrap();
        assert_eq!(t.pending_commit(), (0, 0));
        expected = t.collect_all();
    }
    let t = open_tree(&dir);
    t.check_invariants(true);
    assert_eq!(t.collect_all(), expected);
    assert_eq!(t.len(), expected.len());
}

#[test]
fn uncommitted_tree_changes_roll_back() {
    let dir = ScratchDir::new("bptree-rollback");
    let expected;
    {
        let mut t = open_tree(&dir);
        for i in 0..64u64 {
            t.insert(i, i);
        }
        t.try_commit().unwrap();
        expected = t.collect_all();
        // Never committed: lost on "crash" (drop).
        for i in 64..128u64 {
            t.insert(i, i);
        }
    }
    let t = open_tree(&dir);
    t.check_invariants(true);
    assert_eq!(t.collect_all(), expected);
}

#[test]
fn checkpoint_compacts_and_recovers() {
    let dir = ScratchDir::new("bptree-checkpoint");
    let expected;
    {
        let mut t = open_tree(&dir);
        for round in 0..8u64 {
            for i in 0..32u64 {
                t.insert(round * 32 + i, i);
            }
            t.try_commit().unwrap();
        }
        for i in (0..256u64).step_by(2) {
            assert!(t.remove(i, i % 32));
        }
        t.try_checkpoint().unwrap();
        expected = t.collect_all();
        let wal = std::fs::metadata(dir.join(mobidx_pager::WAL_FILE))
            .unwrap()
            .len();
        assert_eq!(wal, 0, "checkpoint truncates the log");
    }
    let t = open_tree(&dir);
    t.check_invariants(true);
    assert_eq!(t.collect_all(), expected);
}

#[test]
fn recovered_tree_keeps_growing_and_committing() {
    let dir = ScratchDir::new("bptree-regrow");
    {
        let mut t = open_tree(&dir);
        for i in 0..100u64 {
            t.insert(i, i);
        }
        t.try_commit().unwrap();
    }
    let expected;
    {
        let mut t = open_tree(&dir);
        for i in 100..200u64 {
            t.insert(i, i);
        }
        t.try_commit().unwrap();
        expected = t.collect_all();
    }
    let mut t = open_tree(&dir);
    t.check_invariants(true);
    assert_eq!(t.collect_all(), expected);
    assert_eq!(t.try_range(0, 199).unwrap().len(), 200);
}

/// Crash at seeded write indices mid-commit; reopen must always yield
/// a structurally sound tree equal to a committed state.
#[test]
fn crash_mid_commit_recovers_a_committed_tree() {
    for crash_at in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        let dir = ScratchDir::new(&format!("bptree-crash-{crash_at}"));
        let mut committed_states: Vec<Vec<(u64, u64)>> = vec![Vec::new()];
        {
            let (backend, image) = DurableFaultStore::open(
                &dir,
                FsyncPolicy::Never,
                FaultPlan::none(crash_at),
                FaultPlan::crash_after_writes(crash_at, crash_at),
            )
            .unwrap();
            let mut t: BPlusTree<u64, u64> =
                BPlusTree::open_durable(small_cfg(), Box::new(backend), &image).unwrap();
            'outer: for window in 0..6u64 {
                for i in 0..10u64 {
                    if t.try_insert(window * 10 + i, i).is_err() {
                        break 'outer;
                    }
                }
                let snapshot = t.collect_all();
                if t.try_commit().is_err() {
                    break 'outer;
                }
                committed_states.push(snapshot);
            }
        }
        let t = open_tree(&dir);
        t.check_invariants(true);
        let got = t.collect_all();
        // A failed commit never wrote its commit record, so recovery
        // lands exactly on the last window that returned `Ok`.
        assert_eq!(
            &got,
            committed_states.last().unwrap(),
            "crash_at={crash_at}: recovered tree is not the last committed state"
        );
    }
}
