//! Durable B+-tree vs a two-level oracle (the commit contract).
//!
//! Two oracles ride along: `pending` mirrors the live tree (open window
//! included), `committed` is what the last sealed window promised to
//! disk. Any surfaced fault — a query's too — triggers the real
//! recovery protocol: drop the tree (the "crash"), reopen the directory
//! fault-free, and require the recovered contents to be *exactly*
//! `committed`: uncommitted work is forgotten by contract, never
//! corrupted, and committed work is never lost.

use crate::bptree::{bptree_cfg, in_range, KEYS};
use crate::driver::{agree, ModelTarget, Run, Tally};
use crate::{mix, CheckConfig};
use mobidx_bptree::BPlusTree;
use mobidx_pager::{DurableFaultStore, FileBackend, FsyncPolicy, PagerError, ScratchDir};
use std::collections::BTreeSet;
use std::path::Path;

pub(crate) struct DurableTarget {
    /// Unique per run and removed when the run ends, however it ends.
    /// The name never feeds back into checked behavior, so it does not
    /// perturb determinism.
    dir: ScratchDir,
    pending: BTreeSet<(u64, u64)>,
    committed: BTreeSet<(u64, u64)>,
    tree: BPlusTree<u64, u64>,
    next_val: u64,
}

/// Opens (with recovery) the durable tree in `dir` on a fault-free
/// [`FileBackend`]. Errors are environmental (filesystem) or a broken
/// recovery image — both are reported as divergence details.
fn open_clean(dir: &Path) -> Result<BPlusTree<u64, u64>, String> {
    let (backend, image) = FileBackend::open(dir, FsyncPolicy::Never)
        .map_err(|e| format!("filesystem error opening durable store: {e}"))?;
    BPlusTree::open_durable(bptree_cfg(), Box::new(backend), &image)
        .ok_or_else(|| "recovered image failed to decode".to_string())
}

impl DurableTarget {
    /// Swaps the tree onto a [`DurableFaultStore`] armed with the fault
    /// plans of `mix(seed, salt)`. The swap marks every live page dirty,
    /// so the next sealed window re-journals the whole tree — idempotent
    /// under replay, and it keeps the arming itself fault-free (the
    /// first allocation of an empty tree never races a fault plan).
    fn arm(&mut self, cfg: &CheckConfig, salt: u64) -> Result<(), String> {
        let (pages, wal) = cfg.faults.durable_plans(mix(cfg.seed, salt));
        let (backend, _image) = DurableFaultStore::open(&self.dir, FsyncPolicy::Never, pages, wal)
            .map_err(|e| format!("filesystem error arming durable store: {e}"))?;
        drop(self.tree.set_backend(Box::new(backend)));
        Ok(())
    }
}

impl ModelTarget for DurableTarget {
    const NAME: &'static str = "durable";
    const SALT: u64 = 7;

    fn build(run: &mut Run) -> Result<Self, String> {
        let dir = ScratchDir::new("check-durable");
        let mut target = Self {
            tree: open_clean(&dir)?,
            dir,
            pending: BTreeSet::new(),
            committed: BTreeSet::new(),
            next_val: 0,
        };
        target.arm(&run.cfg, 3000)?;
        Ok(target)
    }

    fn step(&mut self, run: &mut Run) -> Result<usize, String> {
        let Run { rng, report, .. } = run;
        let roll = rng.below(100);
        let done: Result<(), PagerError> = if roll < 35 {
            let entry = (rng.below(KEYS), self.next_val);
            self.next_val += 1;
            self.tree.try_insert(entry.0, entry.1).map(|()| {
                self.pending.insert(entry);
            })
        } else if roll < 55 && !self.pending.is_empty() {
            let n = rng.below(self.pending.len() as u64) as usize;
            let &(key, val) = self.pending.iter().nth(n).expect("indexed oracle entry");
            let removed = self.tree.try_remove(key, val);
            if let Ok(false) = removed {
                return Err(format!(
                    "present pair ({key}, {val}) reported absent on remove"
                ));
            }
            removed.map(|_| {
                self.pending.remove(&(key, val));
            })
        } else if roll < 75 {
            let lo = rng.below(KEYS);
            let hi = lo + rng.below(16);
            let Ok(mut got) = self.tree.try_range(lo, hi) else {
                return Ok(1);
            };
            report.queries += 1;
            got.sort_unstable();
            let want = in_range(&self.pending, lo, hi);
            agree(format_args!("range [{lo}, {hi}]"), &got, &want)?;
            Ok(())
        } else {
            // Seal the open window — or, occasionally, checkpoint,
            // which commits *and* truncates the log.
            let sealed = if roll >= 97 {
                self.tree.try_checkpoint()
            } else {
                self.tree.try_commit()
            };
            sealed.map(|()| self.committed.clone_from(&self.pending))
        };
        Ok(usize::from(done.is_err()))
    }

    fn spent(&self) -> Tally {
        Tally::of(self.tree.store().stats())
    }

    fn recover(&mut self, run: &mut Run) -> Result<(), String> {
        self.tree = open_clean(&self.dir)?;
        let mut got = self
            .tree
            .try_range(0, KEYS - 1)
            .expect("FileBackend never faults");
        got.sort_unstable();
        run.report.queries += 1;
        let want: Vec<(u64, u64)> = self.committed.iter().copied().collect();
        agree(
            "recovery broke the commit contract (index = recovered, oracle = last sealed window)",
            &got,
            &want,
        )?;
        // Uncommitted work is gone — by contract, not by accident.
        self.pending.clone_from(&self.committed);
        self.arm(&run.cfg, 3000 + run.round)
    }
}
