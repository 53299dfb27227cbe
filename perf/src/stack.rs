//! Builds the program under test and calls it. Everything here goes
//! through public functions of `mobidx-serve` and `mobidx-core`; the
//! harness only ever hands over generated inputs and reads back answers
//! and public counters.

use crate::inputs::SetupInputs;
use crate::scratch::TempDir;
use crate::spec::{Kind, Spec, SHARDS};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{IoTotals, MotionDb, QueryOutput, QueryRequest};
use mobidx_pager::{FileBackend, FsyncPolicy};
use mobidx_serve::{Batch, IdHashShard, ServeConfig, ShardedDb};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::path::{Path, PathBuf};

/// The fsync policy of `durable_stream`, on both sides of a comparison.
pub const FSYNC: FsyncPolicy = FsyncPolicy::OnCommit;

/// The index configuration of a workload: the paper's dual-B+ method
/// with c = 6 and the workload's pool size.
#[must_use]
pub fn index_config(spec: &Spec) -> DualBPlusConfig {
    let mut cfg = DualBPlusConfig::default();
    cfg.tree.buffer_pages = spec.pool_pages;
    cfg
}

/// Arms a `FileBackend` on every page store of `index`, one directory
/// per store under `root`. Returns the store directories.
///
/// # Panics
/// Panics when a store directory cannot be opened or is not fresh.
pub fn arm_file_backends(index: &mut DualBPlusIndex, root: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    index.set_backends(&mut || {
        let dir = root.join(format!("store{}", dirs.len()));
        let (backend, image) = FileBackend::open(&dir, FSYNC).expect("open fresh store dir");
        assert!(image.is_empty(), "fresh store dir must recover empty");
        dirs.push(dir);
        Box::new(backend)
    });
    dirs
}

/// The program under test, built and loaded. One lives per run, so the
/// size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    /// The serving tier over `SHARDS` dual-B+ indexes.
    Sharded {
        /// The facade.
        db: ShardedDb<DualBPlusIndex>,
        /// Store directories (`durable_stream` only), removed on drop.
        dir: Option<TempDir>,
        /// Every `FileBackend` directory, in shard then store order.
        stores: Vec<PathBuf>,
    },
    /// `MotionDb` over one dual-B+ index (`paper_cold`).
    Single(MotionDb<DualBPlusIndex>),
}

impl Stack {
    /// Builds the stack of `spec` and runs its set-up: the bulk load in
    /// one `apply`, then one `apply` per ageing instant (`MotionDb`:
    /// one `insert` / `update` per record, the paper's protocol).
    ///
    /// # Errors
    /// When the scratch directory cannot be created or a set-up write
    /// is rejected.
    pub fn build(spec: &Spec, setup: &SetupInputs, tmp_root: &Path) -> Result<Self, String> {
        if spec.kind == Kind::Cold {
            let mut db = MotionDb::new(DualBPlusIndex::new(index_config(spec)));
            for m in &setup.initial {
                db.try_insert(*m).map_err(|e| e.to_string())?;
            }
            for m in setup.ageing.iter().flatten() {
                db.try_update(*m).map_err(|e| e.to_string())?;
            }
            return Ok(Stack::Single(db));
        }
        let cfg = index_config(spec);
        let db = ShardedDb::new(
            ServeConfig {
                shards: SHARDS,
                read_threads: 1,
                queue_depth: 64,
                fsync: FSYNC,
            },
            Box::new(IdHashShard),
            move |_, _| DualBPlusIndex::new(cfg),
        );
        let mut dir = None;
        let mut stores = Vec::new();
        if spec.kind == Kind::Durable {
            let tmp = TempDir::create(tmp_root)?;
            for shard in 0..SHARDS {
                let shard_root = tmp.path().join(format!("shard{shard}"));
                let dirs = db
                    .with_shard(shard, move |index| arm_file_backends(index, &shard_root))
                    .map_err(|e| e.to_string())?;
                stores.extend(dirs);
            }
            dir = Some(tmp);
        }
        let mut load = Batch::new();
        for m in &setup.initial {
            load.insert(*m);
        }
        db.apply(&load).map_err(|e| e.to_string())?;
        for instant in &setup.ageing {
            let mut batch = Batch::new();
            for m in instant {
                batch.update(*m);
            }
            db.apply(&batch).map_err(|e| e.to_string())?;
        }
        Ok(Stack::Sharded { db, dir, stores })
    }

    /// One client `apply`.
    ///
    /// # Errors
    /// The serving tier's error, rendered.
    pub fn apply(&mut self, batch: &Batch) -> Result<(), String> {
        match self {
            Stack::Sharded { db, .. } => db.apply(batch).map_err(|e| e.to_string()),
            Stack::Single(_) => Err("paper_cold has no write path".to_owned()),
        }
    }

    /// What is not timed before a query: the paper clears the buffers so
    /// that every query is cold. Nothing on the serving tier.
    pub fn before_query(&mut self) {
        if let Stack::Single(db) = self {
            db.clear_buffers();
        }
    }

    /// One query.
    ///
    /// # Errors
    /// The serving tier's error, rendered.
    pub fn query(&mut self, req: &QueryRequest<'_, MorQuery1D>) -> Result<QueryOutput, String> {
        match self {
            Stack::Sharded { db, .. } => db.query(req).map_err(|e| e.to_string()),
            Stack::Single(db) => Ok(db.query(req)),
        }
    }

    /// Public I/O counters, summed over every page store.
    ///
    /// # Errors
    /// When a shard worker is gone.
    pub fn io_totals(&self) -> Result<IoTotals, String> {
        match self {
            Stack::Sharded { db, .. } => db.io_totals().map_err(|e| e.to_string()),
            Stack::Single(db) => Ok(db.io_totals()),
        }
    }

    /// The motion table as the program reports it, sorted by id.
    #[must_use]
    pub fn objects(&self) -> Vec<Motion1D> {
        let mut objects: Vec<Motion1D> = match self {
            Stack::Sharded { db, .. } => db.objects(),
            Stack::Single(db) => db.objects().copied().collect(),
        };
        objects.sort_unstable_by_key(|m| m.id);
        objects
    }

    /// The serving facade, when there is one.
    #[must_use]
    pub fn sharded(&self) -> Option<&ShardedDb<DualBPlusIndex>> {
        match self {
            Stack::Sharded { db, .. } => Some(db),
            Stack::Single(_) => None,
        }
    }

    /// Bytes in every `wal.log` of the stack (0 without a WAL).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        match self {
            Stack::Sharded { dir: Some(dir), .. } => {
                crate::scratch::total_len(dir.path(), mobidx_pager::WAL_FILE)
            }
            _ => 0,
        }
    }
}

/// What reopening every store of a dropped durable stack found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Wall time to reopen and replay every store.
    pub seconds: f64,
    /// WAL records replayed.
    pub replayed_records: u64,
    /// Live pages recovered.
    pub live_pages: u64,
}

/// Reopens every store directory the way a restarted server would.
///
/// # Errors
/// When a store directory cannot be read.
pub fn recover(stores: &[PathBuf]) -> Result<Recovery, String> {
    let started = std::time::Instant::now();
    let mut out = Recovery::default();
    for dir in stores {
        let (_backend, image) =
            FileBackend::open(dir, FSYNC).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        out.replayed_records += image.replayed_records;
        out.live_pages += image.live_pages() as u64;
    }
    out.seconds = started.elapsed().as_secs_f64();
    Ok(out)
}
