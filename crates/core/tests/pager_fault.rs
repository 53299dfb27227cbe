//! The one infallible layer: the index crates below `mobidx-core` expose
//! only fallible `try_*` calls, and the `Index1D` implementations here
//! turn a pager fault into a panic carrying [`PAGER_FAULT`]. Each method
//! below is built whose trees have no panicking API of their own; every
//! store is then armed with a backend that is already dead, so the first
//! page access of an insert or a query faults.

use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::dual_kd::{DualKdConfig, DualKdIndex};
use mobidx_core::method::mor1::Mor1Index;
use mobidx_core::method::seg_rtree::{SegRTreeConfig, SegRTreeIndex};
use mobidx_core::{Index1D, IndexStats, QueryRequest, PAGER_FAULT};
use mobidx_interval::IntervalConfig;
use mobidx_kdtree::KdConfig;
use mobidx_pager::{FaultPlan, FaultStore};
use mobidx_persist::PersistConfig;
use mobidx_rstar::RStarConfig;
use mobidx_workload::{MorQuery1D, Motion1D, Simulator1D, WorkloadConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn motions(n: usize) -> Vec<Motion1D> {
    Simulator1D::new(WorkloadConfig {
        n,
        seed: 5,
        ..WorkloadConfig::default()
    })
    .objects()
    .to_vec()
}

/// Flushes the index with its own backends, then arms a crashed
/// [`FaultStore`] on every store, so the next page miss faults.
fn arm_crashed<I: IndexStats + ?Sized>(index: &mut I) {
    index.clear_buffers();
    index.set_backends(&mut || Box::new(FaultStore::new(FaultPlan::crash_after(1, 0))));
}

/// Runs `op` and returns the message it panicked with.
fn panic_message(what: &str, op: impl FnOnce()) -> String {
    let payload: Box<dyn Any + Send> =
        catch_unwind(AssertUnwindSafe(op)).expect_err(&format!("{what}: no panic"));
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default()
}

#[test]
fn infallible_layer_panics_with_pager_fault() {
    let objects = motions(300);
    let extra = motions(301)[300];
    let q = MorQuery1D {
        y1: 0.0,
        y2: 1000.0,
        t1: 0.0,
        t2: 20.0,
    };
    let tree = TreeConfig {
        leaf_cap: 16,
        branch_cap: 16,
        buffer_pages: 4,
    };
    let indexes: [Box<dyn Index1D>; 3] = [
        Box::new(DualKdIndex::new(DualKdConfig {
            kd: KdConfig::small(16, 8),
            ..DualKdConfig::default()
        })),
        Box::new(SegRTreeIndex::new(SegRTreeConfig {
            rstar: RStarConfig::with_max(16),
            ..SegRTreeConfig::default()
        })),
        Box::new(DualBPlusIndex::new(DualBPlusConfig {
            c: 2,
            tree,
            interval: IntervalConfig::small(16, 16),
            maintain_subterrain: true,
            ..DualBPlusConfig::default()
        })),
    ];
    for mut index in indexes {
        for m in &objects {
            index.insert(m);
        }
        let name = index.name();
        arm_crashed(&mut *index);
        let msg = panic_message(&name, || drop(index.query(&QueryRequest::new(&q))));
        assert!(msg.contains(PAGER_FAULT), "{name} query: {msg}");
        let msg = panic_message(&name, || index.insert(&extra));
        assert!(msg.contains(PAGER_FAULT), "{name} insert: {msg}");
    }

    // MOR1 is built once, from a static set: a query is its only call.
    let mut mor1 = Mor1Index::build(PersistConfig::small(16), &motions(60), 0.0, 50.0);
    arm_crashed(&mut mor1);
    let msg = panic_message("mor1", || drop(mor1.query(10.0, 0.0, 1000.0)));
    assert!(msg.contains(PAGER_FAULT), "mor1 query: {msg}");
}
