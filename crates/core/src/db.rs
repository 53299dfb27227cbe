//! A small "motion database" facade over any 1-D index.
//!
//! §2 of the paper: "Objects are responsible to update their motion
//! information, every time when their speed or direction changes", and
//! an update is processed as delete(old) + insert(new) (§3). The index
//! types in [`crate::method`] expose exactly that primitive; this facade
//! adds what a database needs around it — the authoritative motion
//! table, keyed by object id, so callers update by id without tracking
//! the previously inserted record themselves.

use crate::method::{Index1D, IoTotals, QueryOutput, QueryRequest};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::collections::HashMap;
use std::fmt;

/// Typed error of [`MotionDb::try_insert`]: the id is already tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateId(pub u64);

impl fmt::Display for DuplicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object {} already tracked", self.0)
    }
}

impl std::error::Error for DuplicateId {}

/// Typed error of [`MotionDb::try_update`] / [`MotionDb::try_remove`]:
/// no object with this id is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownId(pub u64);

impl fmt::Display for UnknownId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown object {}", self.0)
    }
}

impl std::error::Error for UnknownId {}

/// One mutation in an [`MotionDb::apply_batch`] group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DbOp {
    /// Register a new object (fails on an already-tracked id).
    Insert(Motion1D),
    /// Replace a tracked object's motion (fails on an unknown id).
    Update(Motion1D),
    /// Deregister a tracked object (fails on an unknown id).
    Remove(u64),
}

/// Typed error of [`MotionDb::try_apply_batch`]: the validation pass
/// rejected one op. The database is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// An `Insert` hit an already-tracked id.
    Duplicate(DuplicateId),
    /// An `Update` or `Remove` named an untracked id.
    Unknown(UnknownId),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Duplicate(e) => e.fmt(f),
            BatchError::Unknown(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<DuplicateId> for BatchError {
    fn from(e: DuplicateId) -> Self {
        BatchError::Duplicate(e)
    }
}

impl From<UnknownId> for BatchError {
    fn from(e: UnknownId) -> Self {
        BatchError::Unknown(e)
    }
}

/// Sorts motions by dual-space locality: speed, then Hough-X intercept
/// `a = y0 − v·t0`, then id — trajectories whose dual points land in the
/// same index pages arrive adjacently, which is what makes the grouped
/// [`Index1D::batch_update`] path dirty each page once. Every caller
/// that dispatches to `batch_update` (this facade, the serving shards,
/// the benchmark harness) sorts through this one definition.
pub fn sort_by_dual_locality(motions: &mut [Motion1D]) {
    motions.sort_unstable_by(|p, q| {
        p.v.total_cmp(&q.v)
            .then_with(|| (p.y0 - p.v * p.t0).total_cmp(&(q.y0 - q.v * q.t0)))
            .then_with(|| p.id.cmp(&q.id))
    });
}

/// A motion database: an [`Index1D`] plus the current motion table.
///
/// ```
/// use mobidx_core::db::MotionDb;
/// use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
/// use mobidx_core::{Motion1D, MorQuery1D, QueryRequest};
///
/// let mut db = MotionDb::new(DualBPlusIndex::new(DualBPlusConfig::default()));
/// db.insert(Motion1D { id: 42, t0: 0.0, y0: 100.0, v: 1.0 });
///
/// // The object reports a new heading at t = 20 (it is at 120 by then).
/// db.update(Motion1D { id: 42, t0: 20.0, y0: 120.0, v: -0.5 });
///
/// let q = MorQuery1D { y1: 100.0, y2: 111.0, t1: 38.0, t2: 42.0 };
/// // At t = 40 the object is back at 110.
/// assert_eq!(db.query(&QueryRequest::new(&q)), vec![42]);
/// assert_eq!(db.remove(42).map(|m| m.v), Some(-0.5));
/// assert!(db.is_empty());
/// ```
#[derive(Debug)]
pub struct MotionDb<I: Index1D> {
    index: I,
    table: HashMap<u64, Motion1D>,
}

impl<I: Index1D> MotionDb<I> {
    /// Wraps an (empty) index.
    #[must_use]
    pub fn new(index: I) -> Self {
        Self {
            index,
            table: HashMap::new(),
        }
    }

    /// Number of tracked objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The current motion record of an object.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&Motion1D> {
        self.table.get(&id)
    }

    /// The full motion table (the brute-force oracle's input).
    pub fn objects(&self) -> impl Iterator<Item = &Motion1D> {
        self.table.values()
    }

    /// Registers a new object, failing with a typed error if the id is
    /// already tracked (use [`MotionDb::try_update`] for updates).
    ///
    /// # Errors
    /// [`DuplicateId`] when the id is already tracked; the database is
    /// unchanged.
    pub fn try_insert(&mut self, m: Motion1D) -> Result<(), DuplicateId> {
        if self.table.contains_key(&m.id) {
            return Err(DuplicateId(m.id));
        }
        self.table.insert(m.id, m);
        self.index.insert(&m);
        Ok(())
    }

    /// Applies a motion update: the stored record is replaced by `m`
    /// (delete old + insert new, §3).
    ///
    /// # Errors
    /// [`UnknownId`] when no object with this id is tracked; the
    /// database is unchanged.
    pub fn try_update(&mut self, m: Motion1D) -> Result<(), UnknownId> {
        let Some(&old) = self.table.get(&m.id) else {
            return Err(UnknownId(m.id));
        };
        self.table.insert(m.id, m);
        let removed = self.index.remove(&old);
        debug_assert!(removed, "index lost object {}", m.id);
        self.index.insert(&m);
        Ok(())
    }

    /// Deregisters an object, returning its last motion record.
    ///
    /// # Errors
    /// [`UnknownId`] when no object with this id is tracked.
    pub fn try_remove(&mut self, id: u64) -> Result<Motion1D, UnknownId> {
        let old = self.table.remove(&id).ok_or(UnknownId(id))?;
        let removed = self.index.remove(&old);
        debug_assert!(removed, "index lost object {id}");
        Ok(old)
    }

    /// Registers a new object.
    ///
    /// # Panics
    /// Panics if the id is already tracked — use [`MotionDb::update`]
    /// (or [`MotionDb::try_insert`] for a typed error).
    pub fn insert(&mut self, m: Motion1D) {
        self.try_insert(m)
            .unwrap_or_else(|e| panic!("object {} already tracked", e.0));
    }

    /// Applies a motion update (delete old + insert new, §3).
    ///
    /// # Panics
    /// Panics if the object is unknown — use [`MotionDb::try_update`]
    /// for a typed error.
    pub fn update(&mut self, m: Motion1D) {
        self.try_update(m)
            .unwrap_or_else(|e| panic!("update of unknown object {}", e.0));
    }

    /// Applies a group of mutations with one index round-trip.
    ///
    /// The whole group is validated first against a staged view of the
    /// table (ops see the effects of earlier ops in the same group), then
    /// folded to the **net** effect per object id — `[Insert(m),
    /// Remove(m.id)]` cancels entirely, and an id updated several times
    /// produces one removal of its pre-batch record plus one insertion
    /// of its final record. The nets are dispatched to
    /// [`Index1D::batch_update`] as one removal list plus one insertion
    /// list, both sorted by dual-space locality `(v, y0 − v·t0, id)`.
    ///
    /// # Errors
    /// The first failing op as a [`BatchError`]; the database is then
    /// unchanged.
    pub fn try_apply_batch(&mut self, ops: &[DbOp]) -> Result<(), BatchError> {
        // Pass 1: validate every op against the staged view.
        let mut staged: HashMap<u64, Option<Motion1D>> = HashMap::new();
        for op in ops {
            match *op {
                DbOp::Insert(m) => {
                    if self.staged_present(&staged, m.id) {
                        return Err(DuplicateId(m.id).into());
                    }
                    staged.insert(m.id, Some(m));
                }
                DbOp::Update(m) => {
                    if !self.staged_present(&staged, m.id) {
                        return Err(UnknownId(m.id).into());
                    }
                    staged.insert(m.id, Some(m));
                }
                DbOp::Remove(id) => {
                    if !self.staged_present(&staged, id) {
                        return Err(UnknownId(id).into());
                    }
                    staged.insert(id, None);
                }
            }
        }
        // Pass 2: the net per-id effect (ids whose record is unchanged
        // drop out entirely).
        let mut removes = Vec::new();
        let mut inserts = Vec::new();
        for (&id, after) in &staged {
            let before = self.table.get(&id).copied();
            if before == *after {
                continue;
            }
            if let Some(old) = before {
                removes.push(old);
            }
            if let Some(new) = *after {
                inserts.push(new);
            }
        }
        // Commit the table, then hand the index one grouped update.
        for (id, after) in staged {
            match after {
                Some(m) => {
                    self.table.insert(id, m);
                }
                None => {
                    self.table.remove(&id);
                }
            }
        }
        sort_by_dual_locality(&mut removes);
        sort_by_dual_locality(&mut inserts);
        let removed = self.index.batch_update(&removes, &inserts);
        debug_assert_eq!(removed, removes.len(), "index lost records in batch");
        Ok(())
    }

    /// Applies a group of mutations (see [`MotionDb::try_apply_batch`]).
    ///
    /// # Panics
    /// Panics on the first invalid op; the database is then unchanged.
    pub fn apply_batch(&mut self, ops: &[DbOp]) {
        self.try_apply_batch(ops)
            .unwrap_or_else(|e| panic!("invalid batch: {e}"));
    }

    /// Whether `id` is tracked in the staged view (`staged` overlays the
    /// committed table).
    fn staged_present(&self, staged: &HashMap<u64, Option<Motion1D>>, id: u64) -> bool {
        staged
            .get(&id)
            .map_or_else(|| self.table.contains_key(&id), Option::is_some)
    }

    /// Inserts or updates, whichever applies.
    pub fn upsert(&mut self, m: Motion1D) {
        if self.table.contains_key(&m.id) {
            self.update(m);
        } else {
            self.insert(m);
        }
    }

    /// Deregisters an object, returning its last motion record (`None`
    /// when untracked).
    pub fn remove(&mut self, id: u64) -> Option<Motion1D> {
        self.try_remove(id).ok()
    }

    /// Answers a MOR query — the one read entry point (see
    /// [`QueryRequest`] for the options: trace/span construction and
    /// out-buffer reuse).
    pub fn query(&mut self, req: &QueryRequest<'_, MorQuery1D>) -> QueryOutput {
        self.index.query(req)
    }

    /// The underlying index (e.g. for method-specific extensions such as
    /// [`crate::method::dual_kd::DualKdIndex::nearest`]).
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    /// I/O counters of the underlying index.
    #[must_use]
    pub fn io_totals(&self) -> IoTotals {
        self.index.io_totals()
    }

    /// Clears the index buffer pools (cold-query protocol).
    pub fn clear_buffers(&mut self) {
        self.index.clear_buffers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
    use mobidx_bptree::TreeConfig;
    use mobidx_workload::{brute_force_1d, Simulator1D, WorkloadConfig};

    fn db() -> MotionDb<DualBPlusIndex> {
        MotionDb::new(DualBPlusIndex::new(DualBPlusConfig {
            c: 3,
            tree: TreeConfig {
                leaf_cap: 16,
                branch_cap: 16,
                buffer_pages: 4,
            },
            ..DualBPlusConfig::default()
        }))
    }

    #[test]
    fn tracks_a_simulated_world() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 300,
            updates_per_instant: 15,
            seed: 0xDB,
            ..WorkloadConfig::default()
        });
        let mut db = db();
        for m in sim.objects() {
            db.insert(*m);
        }
        for _ in 0..20 {
            for u in sim.step() {
                db.update(u.new); // by id; the db finds the old record
            }
        }
        assert_eq!(db.len(), 300);
        for _ in 0..10 {
            let q = sim.gen_query(150.0, 60.0);
            assert_eq!(
                db.query(&QueryRequest::new(&q)),
                brute_force_1d(sim.objects(), &q)
            );
        }
    }

    #[test]
    fn an_undonated_answer_is_allocated_at_its_final_length() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 2000,
            seed: 0xCA9,
            ..WorkloadConfig::default()
        });
        let mut db = db();
        for m in sim.objects() {
            db.insert(*m);
        }
        for (yqmax, tw) in [(150.0, 60.0), (10.0, 20.0)] {
            for _ in 0..5 {
                let q = sim.gen_query(yqmax, tw);
                let ids = db.query(&QueryRequest::new(&q)).into_ids();
                assert_eq!(ids, brute_force_1d(sim.objects(), &q));
                assert_eq!(ids.capacity(), ids.len(), "{q:?}");
            }
        }
    }

    #[test]
    fn remove_and_upsert() {
        let mut db = db();
        let m = Motion1D {
            id: 5,
            t0: 0.0,
            y0: 10.0,
            v: 1.0,
        };
        db.upsert(m); // insert path
        db.upsert(Motion1D { v: -1.0, ..m }); // update path
        assert_eq!(db.get(5).map(|m| m.v), Some(-1.0));
        assert!(db.remove(5).is_some());
        assert!(db.remove(5).is_none());
        let q = MorQuery1D {
            y1: 0.0,
            y2: 1000.0,
            t1: 0.0,
            t2: 100.0,
        };
        assert!(db.query(&QueryRequest::new(&q)).is_empty());
    }

    #[test]
    fn apply_batch_matches_sequential_ops() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 400,
            updates_per_instant: 40,
            seed: 0xBA7C,
            ..WorkloadConfig::default()
        });
        let mut seq = db();
        let mut bat = db();
        for m in sim.objects() {
            seq.insert(*m);
            bat.insert(*m);
        }
        for _ in 0..15 {
            let ups = sim.step();
            let mut ops = Vec::new();
            for u in &ups {
                seq.update(u.new);
                ops.push(DbOp::Update(u.new));
            }
            bat.apply_batch(&ops);
            assert_eq!(bat.len(), seq.len());
        }
        for _ in 0..10 {
            let q = sim.gen_query(150.0, 60.0);
            let want = brute_force_1d(sim.objects(), &q);
            assert_eq!(seq.query(&QueryRequest::new(&q)), want);
            assert_eq!(bat.query(&QueryRequest::new(&q)), want);
        }
    }

    #[test]
    fn apply_batch_nets_out_cancelling_ops() {
        let mut db = db();
        let m = Motion1D {
            id: 7,
            t0: 0.0,
            y0: 50.0,
            v: 1.0,
        };
        // Insert then remove in one group: net nothing.
        db.apply_batch(&[DbOp::Insert(m), DbOp::Remove(7)]);
        assert!(db.is_empty());
        // Insert + several updates: net one final record.
        let last = Motion1D {
            id: 7,
            t0: 2.0,
            y0: 52.0,
            v: -1.0,
        };
        db.apply_batch(&[
            DbOp::Insert(m),
            DbOp::Update(Motion1D { v: 0.5, ..m }),
            DbOp::Update(last),
        ]);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(7), Some(&last));
        // Remove + reinsert of the identical record: net nothing, but
        // still tracked afterwards.
        db.apply_batch(&[DbOp::Remove(7), DbOp::Insert(last)]);
        assert_eq!(db.get(7), Some(&last));
    }

    #[test]
    fn apply_batch_rejects_and_leaves_db_unchanged() {
        let mut db = db();
        let m = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 10.0,
            v: 1.0,
        };
        db.insert(m);
        // Duplicate insert, staged-aware.
        assert_eq!(
            db.try_apply_batch(&[DbOp::Update(Motion1D { v: 2.0, ..m }), DbOp::Insert(m)]),
            Err(BatchError::Duplicate(DuplicateId(1)))
        );
        assert_eq!(db.get(1), Some(&m), "failed batch must not commit");
        // Unknown update after a staged remove.
        assert_eq!(
            db.try_apply_batch(&[DbOp::Remove(1), DbOp::Update(m)]),
            Err(BatchError::Unknown(UnknownId(1)))
        );
        assert_eq!(db.get(1), Some(&m));
        // Empty batch is a no-op.
        db.apply_batch(&[]);
        assert_eq!(db.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_insert_panics() {
        let mut db = db();
        let m = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 1.0,
            v: 1.0,
        };
        db.insert(m);
        db.insert(m);
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn update_unknown_panics() {
        let mut db = db();
        db.update(Motion1D {
            id: 9,
            t0: 0.0,
            y0: 1.0,
            v: 1.0,
        });
    }
}
