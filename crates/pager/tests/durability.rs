//! End-to-end durability tests at the `PageStore` level: commit
//! windows against a real [`FileBackend`], crash-and-reopen at seeded
//! points, and the torn-tail sweep (truncate/corrupt the last record
//! at every byte offset — recovery must drop exactly the uncommitted
//! suffix and never a committed record).

use mobidx_pager::wal::{self, WalRecord};
use mobidx_pager::{
    Backend, DurableFaultStore, Fault, FaultKind, FaultPlan, FileBackend, FsyncPolicy, IoKind,
    JournalAck, PageCodec, PageId, PageStore, RecoveredImage, ScratchDir, WAL_FILE,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A tiny codec-able page: a vector of u64s. Its delta is the common
/// case of these tests — values pushed onto the end: the new count, and
/// the new values where the old ones stop.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VecPage(Vec<u64>);

impl PageCodec for VecPage {
    fn encode(&self, out: &mut Vec<u8>) {
        mobidx_pager::put_u32(out, u32::try_from(self.0.len()).unwrap());
        for v in &self.0 {
            mobidx_pager::put_u64(out, *v);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = mobidx_pager::ByteReader::new(bytes);
        let n = r.u32()? as usize;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(r.u64()?);
        }
        if !r.is_empty() {
            return None;
        }
        Some(Self(vals))
    }

    fn encode_delta(&self, base: &Self, out: &mut Vec<u8>) -> bool {
        let kept = base.0.len();
        // Declines unless values were only pushed, and unless saying so
        // (two splices) is shorter than the page (4 + 8 per value): a
        // page that held at least four values.
        if self.0.len() <= kept || self.0[..kept] != base.0[..] || kept < 4 {
            return false;
        }
        let count = u32::try_from(self.0.len()).unwrap().to_le_bytes();
        wal::put_splice(out, 0, 4, &count);
        let pushed: Vec<u8> = self.0[kept..]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        wal::put_splice(out, u32::try_from(4 + 8 * kept).unwrap(), 0, &pushed);
        true
    }
}

/// `(images, deltas)` among the page records of the log in `dir`.
fn page_record_kinds(dir: &Path) -> (usize, usize) {
    let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let (mut images, mut deltas) = (0, 0);
    for (rec, _) in wal::records(&log) {
        match rec {
            WalRecord::PageImage { .. } => images += 1,
            WalRecord::PageDelta { .. } => deltas += 1,
            WalRecord::Free { .. } | WalRecord::Commit { .. } => {}
        }
    }
    (images, deltas)
}

fn open_store(dir: &Path) -> (PageStore<VecPage>, RecoveredImage) {
    let (backend, image) = FileBackend::open(dir, FsyncPolicy::OnCommit).expect("open backend");
    let store =
        PageStore::open_recovered(4, Box::new(backend), &image).expect("decode recovered pages");
    (store, image)
}

/// Live contents by slab index, via the uncounted oracle path.
fn contents(store: &PageStore<VecPage>) -> Vec<(u32, Vec<u64>)> {
    let mut live: Vec<(u32, Vec<u64>)> = store
        .iter_live()
        .map(|(id, p)| (id.index(), p.0.clone()))
        .collect();
    live.sort();
    live
}

#[test]
fn store_commits_survive_reopen() {
    let dir = ScratchDir::new("durability-store-roundtrip");
    let committed;
    {
        let (mut store, image) = open_store(&dir);
        assert!(image.is_empty());
        assert!(store.is_durable());
        let a = store.try_allocate(VecPage(vec![1, 2])).unwrap();
        let b = store.try_allocate(VecPage(vec![3])).unwrap();
        assert_eq!(store.pending_commit(), (2, 0));
        store.try_commit(b"window-1").unwrap();
        assert_eq!(store.pending_commit(), (0, 0));
        assert!(store.stats().wal_records() >= 3);
        assert!(store.stats().wal_bytes() > 0);
        assert_eq!(store.stats().wal_fsyncs(), 1, "group commit");
        // Window 2: mutate a, free b, allocate c. The allocator
        // recycles b's slot for c, which pulls it back out of the
        // freed set — so the window is two dirty pages, zero frees.
        store.try_write(a, |p| p.0.push(99)).unwrap();
        let _ = store.try_free(b).unwrap();
        let c = store.try_allocate(VecPage(vec![7; 10])).unwrap();
        assert_eq!(c.index(), b.index(), "freed slot is recycled");
        assert_eq!(store.pending_commit(), (2, 0));
        store.try_commit(b"window-2").unwrap();
        let _ = c;
        committed = contents(&store);
    }
    let (store, image) = open_store(&dir);
    assert_eq!(image.meta, b"window-2");
    assert_eq!(image.commit_seq, 2);
    assert_eq!(contents(&store), committed);
    assert_eq!(store.stats().wal_replayed(), image.replayed_records);
    assert_eq!(store.pending_commit(), (0, 0));
}

#[test]
fn uncommitted_store_changes_roll_back_on_reopen() {
    let dir = ScratchDir::new("durability-store-rollback");
    let committed;
    {
        let (mut store, _) = open_store(&dir);
        let a = store.try_allocate(VecPage(vec![5])).unwrap();
        store.try_commit(b"w1").unwrap();
        committed = contents(&store);
        // Mutations after the commit are never journaled without a
        // second commit: the "crash" is simply dropping the store.
        store.try_write(a, |p| p.0.push(6)).unwrap();
        store.try_allocate(VecPage(vec![8])).unwrap();
    }
    let (store, image) = open_store(&dir);
    assert_eq!(contents(&store), committed, "reads see a prefix of applies");
    assert_eq!(image.commit_seq, 1);
}

#[test]
fn checkpoint_then_reopen_replays_nothing() {
    let dir = ScratchDir::new("durability-store-ckpt");
    let committed;
    {
        let (mut store, _) = open_store(&dir);
        for i in 0..20u64 {
            store.try_allocate(VecPage(vec![i])).unwrap();
        }
        store.try_commit(b"w1").unwrap();
        let freed = PageId::from_index(3);
        let _ = store.try_free(freed).unwrap();
        store.try_checkpoint(b"ckpt").unwrap();
        committed = contents(&store);
        let wal = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal, 0, "checkpoint truncates the log");
    }
    let (store, image) = open_store(&dir);
    assert_eq!(image.replayed_records, 0);
    assert_eq!(image.meta, b"ckpt");
    assert_eq!(contents(&store), committed);
    // The recovered free list recycles the checkpointed hole.
    let mut store = store;
    let re = store.try_allocate(VecPage(vec![77])).unwrap();
    assert_eq!(re.index(), 3, "hole from the freed page is reused");
}

/// The torn-tail sweep: after two committed windows, append a third
/// window and truncate the log at **every** byte offset past the
/// committed prefix. Recovery must always yield exactly the
/// two-window state — never a partial third window, never less.
#[test]
fn torn_tail_truncation_sweep_never_loses_committed_state() {
    let dir = ScratchDir::new("durability-store-tear-sweep");
    let committed;
    let committed_len;
    {
        let (mut store, _) = open_store(&dir);
        let a = store.try_allocate(VecPage(vec![1])).unwrap();
        // Pages wide enough that a push is journaled as a delta.
        let wide: Vec<PageId> = (0..4)
            .map(|i| store.try_allocate(VecPage(vec![i; 6])).unwrap())
            .collect();
        store.try_commit(b"w1").unwrap();
        store.try_write(a, |p| p.0.push(2)).unwrap();
        for &w in &wide {
            store.try_write(w, |p| p.0.push(20)).unwrap();
        }
        store.try_commit(b"w2").unwrap();
        committed = contents(&store);
        committed_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        // Window 3: journaled but — by construction below — torn.
        store.try_write(a, |p| p.0.push(3)).unwrap();
        for &w in &wide[..2] {
            store.try_write(w, |p| p.0.push(30)).unwrap();
        }
        store.try_allocate(VecPage(vec![4])).unwrap();
        store.try_commit(b"w3").unwrap();
    }
    let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(full.len() > committed_len as usize);
    // Both kinds of page record sit in the sealed prefix and in the
    // tail the sweep tears: 8 images (6 sealed), 6 deltas (4 sealed).
    assert_eq!(page_record_kinds(&dir), (8, 6));
    for cut in committed_len as usize..full.len() {
        std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
        let (store, image) = open_store(&dir);
        assert_eq!(
            contents(&store),
            committed,
            "cut at {cut}: exactly the committed prefix must survive"
        );
        assert_eq!(image.commit_seq, 2, "cut at {cut}");
        assert_eq!(
            image.dropped_bytes,
            (cut - committed_len as usize) as u64,
            "cut at {cut}: exactly the uncommitted suffix is dropped"
        );
    }
    // And with the full (untruncated) log, window 3 applies.
    std::fs::write(dir.join(WAL_FILE), &full).unwrap();
    let (store, image) = open_store(&dir);
    assert_eq!(image.commit_seq, 3);
    assert_ne!(contents(&store), committed);
}

/// The corruption sweep: flip one byte at every offset of the last
/// (committed) record; recovery must keep every *earlier* committed
/// window intact and at most drop the corrupted one.
#[test]
fn corrupting_last_record_at_every_offset_never_corrupts_earlier_windows() {
    let dir = ScratchDir::new("durability-store-corrupt-sweep");
    let w1_state;
    let w1_len;
    {
        let (mut store, _) = open_store(&dir);
        let a = store.try_allocate(VecPage(vec![10])).unwrap();
        store.try_commit(b"w1").unwrap();
        w1_state = contents(&store);
        w1_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() as usize;
        store.try_write(a, |p| p.0.push(11)).unwrap();
        store.try_commit(b"w2").unwrap();
    }
    let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let w2_state = {
        let (store, _) = open_store(&dir);
        contents(&store)
    };
    for offset in w1_len..full.len() {
        let mut bad = full.clone();
        bad[offset] ^= 0x20;
        std::fs::write(dir.join(WAL_FILE), &bad).unwrap();
        let (store, image) = open_store(&dir);
        let got = contents(&store);
        assert!(
            got == w1_state || got == w2_state,
            "offset {offset}: recovered neither window-1 nor window-2 state"
        );
        assert!(image.commit_seq == 1 || image.commit_seq == 2);
        // Reopen already truncated the corrupted tail; restore the
        // intact log for the next iteration.
    }
}

/// Crash mid-commit via the fault adapter at a seeded write index,
/// then reopen: the recovered state is the last fully committed
/// window.
#[test]
fn seeded_crash_mid_commit_recovers_last_committed_window() {
    for crash_at in 1..=8u64 {
        let dir = ScratchDir::new(&format!("durability-store-crash-{crash_at}"));
        let mut last_committed: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut pending: Option<Vec<(u32, Vec<u64>)>> = None;
        {
            let (backend, image) = DurableFaultStore::open(
                &dir,
                FsyncPolicy::Never,
                FaultPlan::none(crash_at),
                FaultPlan::crash_after_writes(crash_at, crash_at),
            )
            .unwrap();
            let mut store: PageStore<VecPage> =
                PageStore::open_recovered(4, Box::new(backend), &image).unwrap();
            'windows: for w in 0..4u64 {
                let id = match store.try_allocate(VecPage(vec![w])) {
                    Ok(id) => id,
                    Err(_) => break 'windows,
                };
                if store.try_write(id, |p| p.0.push(w * 10)).is_err() {
                    break 'windows;
                }
                let snapshot = contents(&store);
                pending = Some(snapshot.clone());
                match store.try_commit(&w.to_le_bytes()) {
                    Ok(()) => {
                        last_committed = snapshot;
                        pending = None;
                    }
                    Err(_) => break 'windows,
                }
            }
        }
        let (store, _) = open_store(&dir);
        let got = contents(&store);
        let acceptable = got == last_committed || pending.as_ref().is_some_and(|p| *p == got);
        assert!(
            acceptable,
            "crash_at={crash_at}: recovered state matches neither the last \
             committed window nor the in-flight one"
        );
    }
}

/// Transient WAL faults are absorbed by the store's retry policy: the
/// commit succeeds and the log stays fully valid.
#[test]
fn transient_wal_faults_are_retried_through_commit() {
    let dir = ScratchDir::new("durability-store-transient");
    {
        let (backend, image) = DurableFaultStore::open(
            &dir,
            FsyncPolicy::Never,
            FaultPlan::none(7),
            FaultPlan::transient(7),
        )
        .unwrap();
        let mut store: PageStore<VecPage> =
            PageStore::open_recovered(4, Box::new(backend), &image).unwrap();
        let mut committed_windows = 0u32;
        for w in 0..200u64 {
            if store.try_allocate(VecPage(vec![w])).is_err() {
                break;
            }
            if store.try_commit(b"w").is_ok() {
                committed_windows += 1;
            }
        }
        assert!(committed_windows > 0);
        assert!(
            store.stats().retries() > 0,
            "transient plan should have exercised the journal retry path"
        );
        assert!(store.stats().faults_recovered() > 0);
    }
    // Whatever committed is recoverable; a window whose commit lost its
    // retry budget is re-journaled by the next successful commit, so the
    // recovered page count can only meet or exceed the commit count.
    let (store, image) = open_store(&dir);
    assert!(image.commit_seq > 0);
    assert!(contents(&store).len() as u64 >= image.commit_seq);
}

/// A [`FileBackend`] that can be told to fail: its `fail_append`-th
/// journal append (counted over its life) is refused cleanly — nothing
/// is written, the store stays alive — and while `fail_checkpoint` is
/// set a checkpoint does all of its work and then reports failure, the
/// way one does whose log truncation failed after the rename.
#[derive(Debug)]
struct Flaky {
    file: FileBackend,
    appends: u64,
    fail_append: Arc<AtomicU64>,
    fail_checkpoint: Arc<AtomicBool>,
}

const REFUSED: Fault = Fault {
    kind: FaultKind::Failed,
    transient: false,
};

impl Flaky {
    fn tick(&mut self) -> Result<(), Fault> {
        self.appends += 1;
        if self.appends == self.fail_append.load(Ordering::SeqCst) {
            return Err(REFUSED);
        }
        Ok(())
    }
}

impl Backend for Flaky {
    fn permit(&mut self, kind: IoKind, page: PageId) -> Result<(), Fault> {
        self.file.permit(kind, page)
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn journal_page(&mut self, page: PageId, bytes: &[u8]) -> Result<JournalAck, Fault> {
        self.tick()?;
        self.file.journal_page(page, bytes)
    }

    fn journal_delta(&mut self, page: PageId, splices: &[u8]) -> Result<JournalAck, Fault> {
        self.tick()?;
        self.file.journal_delta(page, splices)
    }

    fn journal_free(&mut self, page: PageId) -> Result<JournalAck, Fault> {
        self.tick()?;
        self.file.journal_free(page)
    }

    fn journal_commit(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        self.tick()?;
        self.file.journal_commit(meta)
    }

    fn checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> Result<JournalAck, Fault> {
        let ack = self.file.checkpoint(pages, meta)?;
        if self.fail_checkpoint.load(Ordering::SeqCst) {
            return Err(REFUSED);
        }
        Ok(ack)
    }
}

/// A fresh store on a [`Flaky`] backend, with the two switches.
fn open_flaky(dir: &Path) -> (PageStore<VecPage>, Arc<AtomicU64>, Arc<AtomicBool>) {
    let (file, image) = FileBackend::open(dir, FsyncPolicy::Never).expect("open backend");
    let fail_append = Arc::new(AtomicU64::new(u64::MAX));
    let fail_checkpoint = Arc::new(AtomicBool::new(false));
    let backend = Flaky {
        file,
        appends: 0,
        fail_append: Arc::clone(&fail_append),
        fail_checkpoint: Arc::clone(&fail_checkpoint),
    };
    let store = PageStore::open_recovered(4, Box::new(backend), &image).expect("empty image");
    (store, fail_append, fail_checkpoint)
}

/// Rule (a) of DESIGN §9. The records a failed seal left in the log
/// replay in the same window as the retry's. Were the retry to journal
/// deltas again, every page the failed attempt reached would have its
/// delta applied twice; it journals images, which say the same thing
/// however often they are said.
#[test]
fn a_commit_that_fails_on_its_kth_append_and_is_retried_recovers_the_retried_window() {
    // Window 2 below is eight appends: page 0 as an image (too small
    // for a delta), pages 1–4 as deltas, page 6 as an image (new), the
    // free of page 5, the commit record.
    for k in 1..=8u64 {
        let dir = ScratchDir::new(&format!("durability-retry-{k}"));
        let (mut store, fail_append, _) = open_flaky(&dir);
        let small = store.try_allocate(VecPage(vec![1])).unwrap();
        let wide: Vec<PageId> = (0..4)
            .map(|i| store.try_allocate(VecPage(vec![i; 6])).unwrap())
            .collect();
        let doomed = store.try_allocate(VecPage(vec![9; 6])).unwrap();
        store.try_commit(b"w1").unwrap();
        let sealed = store.stats().wal_records();
        assert_eq!(sealed, 7);

        store.try_write(small, |p| p.0.push(2)).unwrap();
        for &w in &wide {
            store.try_write(w, |p| p.0.push(20)).unwrap();
        }
        store.try_allocate(VecPage(vec![7; 6])).unwrap();
        let _ = store.try_free(doomed).unwrap();
        let window = store.pending_commit();
        assert_eq!(window, (6, 1));
        fail_append.store(sealed + k, Ordering::SeqCst);
        store
            .try_commit(b"w2")
            .expect_err("the k-th append is refused");
        assert_eq!(store.pending_commit(), window, "k={k}: the window is kept");
        assert_eq!(store.stats().wal_records(), sealed, "k={k}: nothing sealed");

        // The store is alive; the window grows and is sealed again.
        store.try_write(wide[0], |p| p.0.push(21)).unwrap();
        store.try_commit(b"w2").unwrap();
        assert_eq!(store.pending_commit(), (0, 0));
        let retried = contents(&store);
        // The failed attempt's records, then the retry's — images only:
        // of the attempt's four deltas, those before the k-th append.
        let deltas_of_attempt = k.saturating_sub(2).min(4) as usize;
        let images_of_attempt = usize::from(k > 1) + usize::from(k > 6);
        assert_eq!(
            page_record_kinds(&dir),
            (6 + images_of_attempt + 6, deltas_of_attempt),
            "k={k}"
        );
        {
            let (reopened, image) = open_store(&dir);
            assert_eq!(contents(&reopened), retried, "k={k}");
            assert_eq!((image.commit_seq, &image.meta[..]), (2, &b"w2"[..]));
        }
        // Sealed, the next window is deltas again.
        store.try_write(wide[1], |p| p.0.push(22)).unwrap();
        store.try_commit(b"w3").unwrap();
        assert_eq!(page_record_kinds(&dir).1, deltas_of_attempt + 1, "k={k}");
        let (reopened, image) = open_store(&dir);
        assert_eq!(contents(&reopened), contents(&store), "k={k}");
        assert_eq!(image.commit_seq, 3);
    }
}

/// Rule (a), the checkpoint half. A checkpoint that reports failure may
/// already have replaced the page file: recovery then starts from the
/// pages *with* the open window's changes, and a delta taken against
/// the pages without them would land on the wrong image. The window
/// that follows a failed checkpoint is images, under a sequence number
/// recovery does not skip.
#[test]
fn a_checkpoint_that_fails_after_its_rename_is_followed_by_a_window_recovery_applies() {
    let dir = ScratchDir::new("durability-ckpt-fails");
    let (mut store, _, fail_checkpoint) = open_flaky(&dir);
    let wide: Vec<PageId> = (0..4)
        .map(|i| store.try_allocate(VecPage(vec![i; 6])).unwrap())
        .collect();
    store.try_commit(b"w1").unwrap();
    for &w in &wide {
        store.try_write(w, |p| p.0.push(20)).unwrap();
    }
    fail_checkpoint.store(true, Ordering::SeqCst);
    store.try_checkpoint(b"c2").expect_err("reported as failed");
    assert_eq!(store.pending_commit(), (4, 0), "the window is kept");
    fail_checkpoint.store(false, Ordering::SeqCst);

    store.try_write(wide[0], |p| p.0.push(21)).unwrap();
    store.try_commit(b"w3").unwrap();
    assert_eq!(
        page_record_kinds(&dir),
        (4, 0),
        "the window after a failed checkpoint is images"
    );
    {
        let (reopened, image) = open_store(&dir);
        assert_eq!(contents(&reopened), contents(&store));
        assert_eq!((image.commit_seq, &image.meta[..]), (3, &b"w3"[..]));
        assert_eq!(image.replayed_records, 5, "the window was not skipped");
    }
    store.try_write(wide[1], |p| p.0.push(22)).unwrap();
    store.try_commit(b"w4").unwrap();
    assert_eq!(page_record_kinds(&dir), (4, 1), "then deltas again");
    let (reopened, _) = open_store(&dir);
    assert_eq!(contents(&reopened), contents(&store));
}

/// Rule (b). A delta that does not fit the image before it — it names
/// a dead page, reaches past the image, or starts before its
/// predecessor ended — is no different from a bad checksum: history
/// ends at the window before. That window is installed whole or not at
/// all: what the bad window displaced before its unfit record is put
/// back, and the rest of the log goes.
#[test]
fn a_sealed_window_with_an_unfit_delta_ends_the_replay_at_the_window_before_it() {
    let splices = |list: &[(u32, u32, &[u8])]| {
        let mut out = Vec::new();
        for &(offset, remove, insert) in list {
            wal::put_splice(&mut out, offset, remove, insert);
        }
        out
    };
    let unfit: [(&str, u32, Vec<u8>); 3] = [
        ("names a dead page", 7, splices(&[(0, 0, b"x")])),
        ("reaches past its image", 0, splices(&[(50, 8, b"")])),
        (
            "starts before its predecessor ended",
            0,
            splices(&[(8, 8, b""), (12, 0, b"x")]),
        ),
    ];
    for (what, page, bad) in unfit {
        let dir = ScratchDir::new("durability-unfit");
        let before;
        let sealed_len;
        {
            let (mut store, _) = open_store(&dir);
            for i in 0..3 {
                store.try_allocate(VecPage(vec![i; 6])).unwrap();
            }
            store.try_commit(b"w1").unwrap();
            before = contents(&store);
            sealed_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        }
        {
            // Window 2, by hand: a new page 3, page 1 freed, page 2
            // rewritten — and then the delta that does not fit. Window 3
            // is sound, and goes with it.
            let (mut log, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
            let mut image = Vec::new();
            VecPage(vec![8; 2]).encode(&mut image);
            log.journal_page(PageId::from_index(3), &image).unwrap();
            log.journal_free(PageId::from_index(1)).unwrap();
            log.journal_page(PageId::from_index(2), &image).unwrap();
            log.journal_delta(PageId::from_index(page), &bad).unwrap();
            log.journal_commit(b"w2").unwrap();
            log.journal_page(PageId::from_index(0), &image).unwrap();
            log.journal_commit(b"w3").unwrap();
        }
        let full_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let (store, image) = open_store(&dir);
        assert_eq!(contents(&store), before, "{what}: window 1, whole");
        assert_eq!(
            image.pages.len(),
            3,
            "{what}: the slot of page 3 is gone again"
        );
        assert_eq!(
            (image.commit_seq, &image.meta[..]),
            (1, &b"w1"[..]),
            "{what}"
        );
        assert_eq!(image.replayed_records, 4, "{what}");
        assert_eq!(image.dropped_bytes, full_len - sealed_len, "{what}");
        drop(store);
        // The truncation is physical, and what is left is a sound log.
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            sealed_len
        );
        let (mut store, image) = open_store(&dir);
        assert_eq!(image.dropped_bytes, 0, "{what}");
        store
            .try_write(PageId::from_index(0), |p| p.0.push(5))
            .unwrap();
        store.try_commit(b"w2").unwrap();
        let (reopened, image) = open_store(&dir);
        assert_eq!(contents(&reopened), contents(&store), "{what}");
        assert_eq!(image.commit_seq, 2, "{what}");
    }
}

/// Rule (c). A window that dirtied no page, freed none and carries the
/// metadata of the last sealed one has nothing to say: no record, no
/// fsync.
#[test]
fn an_unchanged_window_leaves_the_log_and_the_fsync_count_where_they_were() {
    let dir = ScratchDir::new("durability-unchanged");
    let wal_len = |dir: &Path| std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let (mut store, _) = open_store(&dir);
    let a = store.try_allocate(VecPage(vec![1])).unwrap();
    store.try_commit(b"m1").unwrap();
    let len = wal_len(&dir);
    let (records, fsyncs) = (store.stats().wal_records(), store.stats().wal_fsyncs());
    assert_eq!((records, fsyncs), (2, 1));

    for _ in 0..3 {
        store.try_commit(b"m1").unwrap();
    }
    assert_eq!(wal_len(&dir), len);
    assert_eq!(store.stats().wal_records(), records);
    assert_eq!(store.stats().wal_fsyncs(), fsyncs);

    // New metadata alone is a change: a commit record, one fsync.
    store.try_commit(b"m2").unwrap();
    assert!(wal_len(&dir) > len);
    assert_eq!(store.stats().wal_records(), records + 1);
    assert_eq!(store.stats().wal_fsyncs(), fsyncs + 1);
    drop(store);

    // A reopened store knows what the last sealed window said.
    let (mut store, image) = open_store(&dir);
    assert_eq!((image.commit_seq, &image.meta[..]), (2, &b"m2"[..]));
    let len = wal_len(&dir);
    store.try_commit(b"m2").unwrap();
    assert_eq!(wal_len(&dir), len);
    assert_eq!(store.stats().wal_fsyncs(), 0);
    // And a page written back to what it was is still a dirty page.
    store.try_write(a, |p| p.0[0] = 1).unwrap();
    store.try_commit(b"m2").unwrap();
    assert!(wal_len(&dir) > len);
    let (_, image) = open_store(&dir);
    assert_eq!(image.commit_seq, 3);
}

/// Off the durable path nothing of this exists: no window is kept, with
/// or without pre-images (the unit tests of `store.rs` hold the page's
/// reference count to 1).
#[test]
fn a_store_without_a_durable_backend_keeps_no_window() {
    let mut store: PageStore<VecPage> = PageStore::new(4);
    let a = store.try_allocate(VecPage(vec![1; 8])).unwrap();
    store.try_write(a, |p| p.0.push(2)).unwrap();
    let b = store.try_allocate(VecPage(vec![2])).unwrap();
    let _ = store.try_free(b).unwrap();
    assert_eq!(store.pending_commit(), (0, 0));
    store.try_commit(b"m").unwrap();
    store.try_checkpoint(b"m").unwrap();
    assert_eq!(store.pending_commit(), (0, 0));
    assert_eq!(store.stats().wal_records(), 0);
}
