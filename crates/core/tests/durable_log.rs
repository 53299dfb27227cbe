//! The bytes of the write-ahead log, pinned.
//!
//! A seeded durable script runs on a [`DualBPlusIndex`] whose every
//! store sits on its own [`FileBackend`]: several commit windows that
//! split leaves and branches, merge them, and borrow between siblings,
//! on moving objects and on static ones at both signed zeros. Each
//! store's `wal.log` must keep its exact length and CRC-32. The page
//! codec's delta encoder and the log's writer may change how they get
//! there, never what lands: a change to either that alters one byte of
//! any record fails here.

use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{Index1D, Motion1D};
use mobidx_pager::wal::{self, WalOp};
use mobidx_pager::{crc32, FileBackend, FsyncPolicy, ScratchDir, WAL_FILE};
use std::path::Path;

/// Small pages, so a few hundred objects build trees three levels deep
/// and a few hundred removals shrink them again.
const TREE: TreeConfig = TreeConfig {
    leaf_cap: 8,
    branch_cap: 4,
    buffer_pages: 4,
};

/// `(wal.log length, CRC-32 of its bytes)` per store, in
/// `set_backends` order: the static tree, then each observation pair.
const PINNED: [(u64, u32); 5] = [
    (5_555, 0x265D_E875),
    (17_758, 0xA317_8E67),
    (16_215, 0x9197_57DB),
    (17_657, 0x411E_1F26),
    (17_193, 0xAA7B_238E),
];

/// splitmix64: the script's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A motion for `id`: one in seven static, the static ones at −0.0,
    /// 0.0 or 250.0 — or, with `zeros` off, only at 250.0.
    #[allow(clippy::cast_precision_loss)]
    fn motion(&mut self, id: u64, t0: f64, zeros: bool) -> Motion1D {
        let (y0, v) = match self.below(7) {
            0 => {
                let at = self.below(3) as usize;
                ([0.0, -0.0, 250.0][if zeros { at } else { 2 }], 0.0)
            }
            _ => {
                let speed = 0.16 + self.below(1000) as f64 * 0.00084;
                let v = if self.below(2) == 0 { speed } else { -speed };
                (self.below(1_000_000) as f64 / 1000.0, v)
            }
        };
        Motion1D { id, t0, y0, v }
    }
}

fn commit(index: &mut DualBPlusIndex) {
    index.commit_group().expect("FileBackend never faults");
}

/// Runs the script with every store on a [`FileBackend`] under `root`
/// and returns the number of stores armed.
fn run_script(root: &Path) -> usize {
    let mut index = DualBPlusIndex::new(DualBPlusConfig {
        c: 2,
        tree: TREE,
        ..DualBPlusConfig::default()
    });
    let mut stores = 0;
    index.set_backends(&mut || {
        let dir = root.join(format!("store{stores}"));
        stores += 1;
        let (backend, image) = FileBackend::open(&dir, FsyncPolicy::Never).expect("open store");
        assert!(image.is_empty(), "a fresh directory recovers empty");
        Box::new(backend)
    });
    let mut rng = Rng(37);
    let mut live: Vec<Motion1D> = Vec::new();
    // Window 1: the trees grow from nothing, one insert at a time.
    for id in 0..300 {
        let m = rng.motion(id, 0.0, true);
        index.insert(&m);
        live.push(m);
    }
    commit(&mut index);
    // Windows 2–6: batches of updates, each a removal and an insertion
    // in every observation tree. Their static motions stay off the
    // signed zeros, which the one-at-a-time windows cover.
    for step in 1..=5 {
        let mut removes = Vec::new();
        let mut inserts = Vec::new();
        for _ in 0..40 {
            let at = rng.below(live.len() as u64) as usize;
            if removes.iter().any(|m: &Motion1D| m.id == live[at].id) {
                continue;
            }
            let moved = rng.motion(live[at].id, f64::from(step), false);
            removes.push(live[at]);
            inserts.push(moved);
            live[at] = moved;
        }
        assert_eq!(index.batch_update(&removes, &inserts), removes.len());
        commit(&mut index);
    }
    // Window 7: two thirds leave — leaves underflow, borrow, merge, and
    // the trees lose levels.
    for _ in 0..200 {
        let at = rng.below(live.len() as u64) as usize;
        assert!(index.remove(&live.swap_remove(at)));
    }
    commit(&mut index);
    // Window 8: newcomers and single updates, one at a time.
    for id in 300..360 {
        let m = rng.motion(id, 6.0, true);
        index.insert(&m);
        live.push(m);
    }
    for _ in 0..30 {
        let at = rng.below(live.len() as u64) as usize;
        assert!(index.remove(&live[at]));
        live[at] = rng.motion(live[at].id, 7.0, true);
        index.insert(&live[at]);
    }
    commit(&mut index);
    stores
}

#[test]
fn every_store_leaves_the_pinned_log() {
    let root = ScratchDir::new("core-durable-log");
    let stores = run_script(&root);
    assert_eq!(stores, PINNED.len(), "the static tree and c = 2 pairs");
    let mut got = Vec::new();
    let (mut images, mut deltas, mut frees, mut windows) = (0, 0, 0, 0);
    for store in 0..stores {
        let dir = root.join(format!("store{store}"));
        let log = std::fs::read(dir.join(WAL_FILE)).expect("read the log");
        got.push((log.len() as u64, crc32(&log)));
        for window in wal::replay(&log) {
            windows += 1;
            for op in &window.ops {
                match op {
                    WalOp::Page { .. } => images += 1,
                    WalOp::Delta { .. } => deltas += 1,
                    WalOp::Free { .. } => frees += 1,
                }
            }
        }
        // And the log is one a store reopens whole.
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).expect("reopen");
        assert_eq!(image.dropped_bytes, 0, "store {store}");
    }
    // The script reaches what it means to: eight windows a store, new
    // pages (splits), changed ones (deltas) and freed ones (merges).
    assert_eq!(windows, 8 * stores);
    assert!(
        images > 0 && deltas > 0 && frees > 0,
        "{images} {deltas} {frees}"
    );
    assert_eq!(got, PINNED, "(length, CRC-32) of each store's wal.log");
}
