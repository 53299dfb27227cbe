//! The page-store layout of every [`IndexStats`] implementor, pinned:
//! the `store_io()` labels in order, how many `make` calls
//! `set_backends` makes, and that those calls arm the stores in the
//! order `clear_buffers` flushes them and `store_io` reports them.

use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual2d::{Decomposition2D, Dual4KdIndex, Dual4PtreeIndex};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::dual_kd::{DualKdConfig, DualKdIndex};
use mobidx_core::method::mor1::{Mor1Index, StaggeredMor1};
use mobidx_core::method::ptree::{DualPtreeConfig, DualPtreeIndex};
use mobidx_core::method::routes::{RouteIndexConfig, RouteMorIndex};
use mobidx_core::method::seg_rtree::{SegRTreeConfig, SegRTreeIndex};
use mobidx_core::{
    Index1D, Index2D, IndexStats, QueryRequest, SpeedBand, VpDualConfig, VpDualIndex,
};
use mobidx_interval::IntervalConfig;
use mobidx_kdtree::KdConfig;
use mobidx_pager::{Backend, Fault, FaultPlan, FaultStore, IoKind, PageId};
use mobidx_persist::PersistConfig;
use mobidx_ptree::PartitionConfig;
use mobidx_rstar::RStarConfig;
use mobidx_workload::{
    brute_force_1d, brute_force_2d, Motion1D, Motion2D, RouteNetwork, RouteWorkloadConfig,
    Simulator1D, Simulator2D, WorkloadConfig, WorkloadConfig2D,
};
use std::sync::{Arc, Mutex};

const TREE: TreeConfig = TreeConfig {
    leaf_cap: 16,
    branch_cap: 16,
    buffer_pages: 4,
};

fn dual_bplus_cfg(c: usize) -> DualBPlusConfig {
    DualBPlusConfig {
        c,
        tree: TREE,
        interval: IntervalConfig::small(16, 16),
        ..DualBPlusConfig::default()
    }
}

fn motions_1d(n: usize) -> Vec<Motion1D> {
    Simulator1D::new(WorkloadConfig {
        n,
        seed: 7,
        ..WorkloadConfig::default()
    })
    .objects()
    .to_vec()
}

fn motions_2d(n: usize) -> Vec<Motion2D> {
    Simulator2D::new(WorkloadConfig2D {
        n,
        seed: 7,
        ..WorkloadConfig2D::default()
    })
    .objects()
    .to_vec()
}

fn filled_1d(mut index: impl Index1D + 'static) -> Box<dyn IndexStats> {
    for m in &motions_1d(200) {
        index.insert(m);
    }
    Box::new(index)
}

fn filled_2d(mut index: impl Index2D + 'static) -> Box<dyn IndexStats> {
    for m in &motions_2d(200) {
        index.insert(m);
    }
    Box::new(index)
}

/// The `make` calls of one dual-B+ index: the static tree, each
/// observation element's two velocity-sign trees, the subterrain
/// interval indices.
fn dual_bplus_makes(prefix: &str, c: usize, sub: usize) -> Vec<String> {
    let mut makes = vec![format!("{prefix}static")];
    for i in 0..c {
        makes.push(format!("{prefix}obs{i}.pos"));
        makes.push(format!("{prefix}obs{i}.neg"));
    }
    makes.extend((0..sub).map(|j| format!("{prefix}sub{j}")));
    makes
}

fn names(names: &[&str]) -> Vec<String> {
    names.iter().map(|&name| name.to_owned()).collect()
}

/// A fault-free backend that logs, per write-back it permits, which
/// `make` call created it.
#[derive(Debug)]
struct Tagged {
    tag: usize,
    log: Arc<Mutex<Vec<usize>>>,
}

impl Backend for Tagged {
    fn permit(&mut self, kind: IoKind, _: PageId) -> Result<(), Fault> {
        if kind == IoKind::WriteBack {
            self.log.lock().expect("log").push(self.tag);
        }
        Ok(())
    }
}

/// A filled index, its `store_io()` labels, and the store each `make`
/// call arms. A make's store belongs to the label its name starts with,
/// up to the first `.`.
type Row = (Box<dyn IndexStats>, Vec<String>, Vec<String>);

/// Every implementor.
fn table() -> Vec<Row> {
    let route_net = RouteNetwork::generate(RouteWorkloadConfig {
        routes: 2,
        segments_per_route: 3,
        n_objects: 100,
        seed: 7,
        ..RouteWorkloadConfig::default()
    });
    let mut routes = RouteMorIndex::new(
        &RouteIndexConfig {
            sam: RStarConfig::with_max(8),
            per_route: dual_bplus_cfg(1),
        },
        route_net.routes.clone(),
    );
    for o in &route_net.objects {
        routes.insert(o);
    }
    let mut route_makes = names(&["sam"]);
    route_makes.extend(dual_bplus_makes("route0.", 1, 0));
    route_makes.extend(dual_bplus_makes("route1.", 1, 0));

    let mut vp_makes = dual_bplus_makes("b0/", 1, 0);
    vp_makes.extend(dual_bplus_makes("b1/", 1, 0));
    let mut axes_makes = dual_bplus_makes("x.", 1, 0);
    axes_makes.extend(dual_bplus_makes("y.", 1, 0));

    let persist = PersistConfig::small(16);
    vec![
        (
            filled_1d(DualBPlusIndex::new(DualBPlusConfig {
                maintain_subterrain: true,
                ..dual_bplus_cfg(2)
            })),
            names(&["static", "obs0", "obs1", "sub0", "sub1"]),
            dual_bplus_makes("", 2, 2),
        ),
        (
            filled_1d(VpDualIndex::new(VpDualConfig {
                bands: 2,
                c: 1,
                tree: TREE,
                ..VpDualConfig::default()
            })),
            names(&["b0/static", "b0/obs0", "b1/static", "b1/obs0"]),
            vp_makes,
        ),
        (
            filled_1d(DualKdIndex::new(DualKdConfig {
                kd: KdConfig::small(16, 8),
                ..DualKdConfig::default()
            })),
            names(&["gen0", "gen1"]),
            names(&["gen0", "gen1"]),
        ),
        (
            filled_1d(DualPtreeIndex::new(DualPtreeConfig {
                ptree: PartitionConfig::small(16, 8),
                ..DualPtreeConfig::default()
            })),
            names(&["gen0", "gen1"]),
            names(&["gen0", "gen1"]),
        ),
        (
            filled_1d(SegRTreeIndex::new(SegRTreeConfig {
                rstar: RStarConfig::with_max(16),
                ..SegRTreeConfig::default()
            })),
            names(&["all"]),
            names(&["all"]),
        ),
        (
            filled_2d(Dual4KdIndex::new(
                KdConfig::small(16, 8),
                SpeedBand::paper(),
            )),
            names(&["all"]),
            names(&["all"]),
        ),
        (
            filled_2d(Dual4PtreeIndex::new(
                PartitionConfig::small(16, 8),
                SpeedBand::paper(),
            )),
            names(&["all"]),
            names(&["all"]),
        ),
        (
            filled_2d(Decomposition2D::new(dual_bplus_cfg(1))),
            names(&["x", "y"]),
            axes_makes,
        ),
        (
            Box::new(Mor1Index::build(persist, &motions_1d(60), 0.0, 50.0)),
            names(&["all"]),
            names(&["all"]),
        ),
        (
            Box::new(StaggeredMor1::new(persist, &motions_1d(60), 0.0, 25.0)),
            names(&["all"]),
            names(&["all"]),
        ),
        (
            Box::new(routes),
            names(&["sam", "route0", "route1"]),
            route_makes,
        ),
    ]
}

#[test]
fn every_index_reports_its_stores_in_one_order() {
    for (mut index, labels, makes) in table() {
        let name = index.name();
        let reported: Vec<String> = index.store_io().into_iter().map(|(l, _)| l).collect();
        assert_eq!(reported, labels, "{name}: store_io labels");

        let log = Arc::new(Mutex::new(Vec::new()));
        let mut made = 0;
        index.set_backends(&mut || {
            made += 1;
            Box::new(Tagged {
                tag: made - 1,
                log: Arc::clone(&log),
            })
        });
        assert_eq!(made, makes.len(), "{name}: make calls");

        index.reset_io();
        index.clear_buffers();
        let flushed = log.lock().expect("log").clone();
        assert!(
            flushed.windows(2).all(|w| w[0] <= w[1]),
            "{name}: clear_buffers flushes the stores in make order: {flushed:?}"
        );
        assert!(!flushed.is_empty(), "{name}: nothing was dirty");
        let mut by_make: Vec<(String, u64)> = Vec::new();
        for (tag, make) in makes.iter().enumerate() {
            let label = make.split('.').next().expect("split yields one piece");
            let writes = flushed.iter().filter(|&&t| t == tag).count() as u64;
            match by_make.last_mut() {
                Some((last, sum)) if last == label => *sum += writes,
                _ => by_make.push((label.to_owned(), writes)),
            }
        }
        let by_label: Vec<(String, u64)> = index
            .store_io()
            .into_iter()
            .map(|(label, totals)| (label, totals.writes))
            .collect();
        assert_eq!(
            by_make, by_label,
            "{name}: each make arms a store of the label it is named for"
        );
    }
}

/// Arms a transient-fault backend on every store through
/// `set_backends`, runs one cold query and returns the faults the stores
/// saw — summed over the store walk — with the answer.
fn armed_cold_query<I: IndexStats + ?Sized>(
    index: &mut I,
    query: impl FnOnce(&mut I) -> Vec<u64>,
) -> (u64, Vec<u64>) {
    let mut seed = 40;
    index.set_backends(&mut || {
        seed += 1;
        Box::new(FaultStore::new(FaultPlan::transient(seed)))
    });
    index.clear_buffers();
    let answer = query(index);
    let mut injected = 0;
    index.stores(&mut |_, store| injected += store.stats().faults_injected());
    (injected, answer)
}

#[test]
fn set_backends_reaches_every_store_of_every_method() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 2000,
        seed: 3,
        ..WorkloadConfig::default()
    });
    let mut ptree = DualPtreeIndex::new(DualPtreeConfig {
        ptree: PartitionConfig::small(16, 8),
        ..DualPtreeConfig::default()
    });
    for m in sim.objects() {
        ptree.insert(m);
    }
    let q = sim.gen_query(150.0, 60.0);
    let (injected, answer) =
        armed_cold_query(&mut ptree, |index| index.query(&QueryRequest::new(&q)).ids);
    assert!(injected > 0, "dual-ptree: no store was armed");
    assert_eq!(answer, brute_force_1d(sim.objects(), &q), "dual-ptree");

    let mut sim = Simulator2D::new(WorkloadConfig2D {
        n: 2000,
        seed: 3,
        ..WorkloadConfig2D::default()
    });
    let q = sim.gen_query(200.0, 40.0);
    let want = brute_force_2d(sim.objects(), &q);
    let indexes: [Box<dyn Index2D>; 3] = [
        Box::new(Dual4KdIndex::new(
            KdConfig::small(16, 8),
            SpeedBand::paper(),
        )),
        Box::new(Dual4PtreeIndex::new(
            PartitionConfig::small(16, 8),
            SpeedBand::paper(),
        )),
        Box::new(Decomposition2D::new(dual_bplus_cfg(4))),
    ];
    for mut index in indexes {
        for m in sim.objects() {
            index.insert(m);
        }
        let (injected, answer) =
            armed_cold_query(&mut *index, |index| index.query(&QueryRequest::new(&q)).ids);
        let name = index.name();
        assert!(injected > 0, "{name}: no store was armed");
        assert_eq!(answer, want, "{name}");
    }
}
