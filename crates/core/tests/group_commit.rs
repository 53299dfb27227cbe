//! A group commit seals every store of an index before it settles any,
//! so that the stores' fsyncs are in flight together; a store that
//! fails stops the sealing, and every store sealed before it is settled
//! all the same.

use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{CommitError, Index1D, IndexStats, Motion1D, VpDualConfig, VpDualIndex};
use mobidx_pager::{
    Backend, DurableFaultStore, Fault, FaultPlan, FileBackend, FsyncPolicy, IoKind, JournalAck,
    PageId, PagerError, ScratchDir,
};
use std::path::Path;
use std::sync::{Arc, Mutex};

const TREE: TreeConfig = TreeConfig {
    leaf_cap: 8,
    branch_cap: 4,
    buffer_pages: 4,
};

/// `n` motions from `first` on: every seventh static, the rest moving
/// both ways at speeds across the paper's band.
fn motions(first: u64, n: u64) -> Vec<Motion1D> {
    (first..first + n)
        .map(|id| {
            #[allow(clippy::cast_precision_loss)]
            let f = id as f64;
            let speed = 0.2 + (id % 13) as f64 * 0.1;
            let v = match id % 7 {
                0 => 0.0,
                k if k % 2 == 0 => speed,
                _ => -speed,
            };
            Motion1D {
                id,
                t0: 0.0,
                y0: (f * 37.0) % 1000.0,
                v,
            }
        })
        .collect()
}

fn insert_all(index: &mut dyn Index1D, ms: &[Motion1D]) {
    for m in ms {
        index.insert(m);
    }
}

fn store_dir(root: &Path, store: usize) -> std::path::PathBuf {
    root.join(format!("store{store}"))
}

/// The log fsyncs each store has counted, in store order.
fn fsyncs(index: &DualBPlusIndex) -> Vec<u64> {
    let mut out = Vec::new();
    index.stores(&mut |_, store| out.push(store.stats().wal_fsyncs()));
    out
}

#[test]
fn a_store_that_fails_to_seal_stops_the_group_and_the_ones_before_it_settle() {
    // The static tree, then obs0.pos, obs0.neg, obs1.pos, obs1.neg.
    const STORES: usize = 5;
    const FAILS: usize = 3;
    let root = ScratchDir::new("core-group-commit");
    let mut index = DualBPlusIndex::new(DualBPlusConfig {
        c: 2,
        tree: TREE,
        ..DualBPlusConfig::default()
    });
    let mut store = 0;
    index.set_backends(&mut || {
        let (backend, _) =
            FileBackend::open(&store_dir(&root, store), FsyncPolicy::OnCommit).expect("open");
        store += 1;
        Box::new(backend)
    });
    assert_eq!(store, STORES);
    insert_all(&mut index, &motions(0, 200));
    index.commit_group().expect("window 1");
    assert_eq!(fsyncs(&index), vec![1; STORES]);

    // Window 2 on the same logs, the fourth store dying at its first
    // journal append.
    let mut store = 0;
    index.set_backends(&mut || {
        let wal_plan = if store == FAILS {
            FaultPlan::crash_after_writes(3, 0)
        } else {
            FaultPlan::none(3)
        };
        let (backend, image) = DurableFaultStore::open(
            &store_dir(&root, store),
            FsyncPolicy::OnCommit,
            FaultPlan::none(3),
            wal_plan,
        )
        .expect("reopen");
        assert_eq!(image.commit_seq, 1);
        store += 1;
        Box::new(backend)
    });
    insert_all(&mut index, &motions(200, 100));
    let err = index.commit_group().unwrap_err();
    assert_eq!(err.store, "obs1.pos");
    assert!(
        matches!(err.error, PagerError::Crashed { .. }),
        "{:?}",
        err.error
    );
    assert!(err
        .to_string()
        .starts_with("commit window rejected on obs1.pos: "));
    // Settled: counted by the stores before the failure, not by the
    // failed one nor the ones after it.
    assert_eq!(fsyncs(&index), vec![2, 2, 2, 1, 1]);
    drop(index);
    for store in 0..STORES {
        let (_, image) =
            FileBackend::open(&store_dir(&root, store), FsyncPolicy::Never).expect("reopen");
        let want = if store < FAILS { 2 } else { 1 };
        assert_eq!(image.commit_seq, want, "store {store}");
    }
}

/// A durable backend that journals nothing and logs, in one list shared
/// by every store of an index, which store sealed or settled when.
#[derive(Debug)]
struct Recorder {
    store: usize,
    events: Arc<Mutex<Vec<(usize, &'static str)>>>,
}

impl Recorder {
    fn note(&self, what: &'static str) -> Result<JournalAck, Fault> {
        self.events.lock().unwrap().push((self.store, what));
        Ok(JournalAck::default())
    }
}

impl Backend for Recorder {
    fn permit(&mut self, _kind: IoKind, _page: PageId) -> Result<(), Fault> {
        Ok(())
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn journal_delta(&mut self, _page: PageId, _splices: &[u8]) -> Result<JournalAck, Fault> {
        Ok(JournalAck::default())
    }

    fn journal_commit(&mut self, _meta: &[u8]) -> Result<JournalAck, Fault> {
        self.note("commit")
    }

    fn journal_seal(&mut self, _meta: &[u8]) -> Result<JournalAck, Fault> {
        self.note("seal")
    }

    fn journal_settle(&mut self) -> Result<JournalAck, Fault> {
        self.note("settle")
    }
}

#[test]
fn a_velocity_partitioned_index_seals_every_band_before_it_settles_any() {
    let mut index = VpDualIndex::new(VpDualConfig {
        bands: 3,
        c: 1,
        tree: TREE,
        pin_roots: false,
        ..VpDualConfig::default()
    });
    let events = Arc::new(Mutex::new(Vec::new()));
    let mut stores = 0;
    index.set_backends(&mut || {
        stores += 1;
        Box::new(Recorder {
            store: stores - 1,
            events: Arc::clone(&events),
        })
    });
    assert_eq!(stores, 3 * 3, "a static tree and one pair a band");
    insert_all(&mut index, &motions(0, 300));
    index.commit_group().expect("a recorder never fails");
    let events = events.lock().unwrap().clone();
    let seals: Vec<usize> = (0..stores).collect();
    let want: Vec<(usize, &str)> = seals
        .iter()
        .map(|&s| (s, "seal"))
        .chain(seals.iter().map(|&s| (s, "settle")))
        .collect();
    assert_eq!(events, want);
}

#[test]
fn a_commit_error_names_its_store_and_keeps_the_pager_error_as_its_source() {
    let err = CommitError {
        store: "b1/obs0.neg".to_owned(),
        error: PagerError::Crashed { after_ios: 7 },
    };
    let source = std::error::Error::source(&err).expect("a source");
    assert_eq!(source.to_string(), err.error.to_string());
    assert_eq!(
        err.to_string(),
        format!("commit window rejected on b1/obs0.neg: {}", err.error)
    );
}
