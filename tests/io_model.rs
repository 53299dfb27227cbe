//! Cross-crate integration of the external-memory cost model itself:
//! the properties of the I/O accounting that the paper's measurements
//! depend on.

use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::dual_kd::{DualKdConfig, DualKdIndex};
use mobidx_core::{Index1D, IndexStats, QueryRequest};
use mobidx_pager::{page_capacity, PageStore, DEFAULT_PAGE_SIZE};
use mobidx_workload::{Simulator1D, WorkloadConfig};

#[test]
fn paper_page_capacities_are_reproduced() {
    // §5: 4096-byte pages; 20-byte R*-tree entries ⇒ 204; 12-byte
    // B+-tree entries ⇒ 341.
    assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 20), 204);
    assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 12), 341);
    assert_eq!(mobidx_rstar::paper_entry_capacity(), 204);
    assert_eq!(mobidx_bptree::paper_leaf_capacity(), 341);
}

#[test]
fn cold_query_costs_are_deterministic() {
    // With the buffer cleared before each query (the paper's protocol),
    // repeating the same query must cost exactly the same I/Os.
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 3000,
        seed: 0x10,
        ..WorkloadConfig::default()
    });
    for _ in 0..3 {
        let _ = sim.step();
    }
    let mut idx = DualBPlusIndex::new(DualBPlusConfig::default());
    for m in sim.objects() {
        idx.insert(m);
    }
    let q = sim.gen_query(150.0, 60.0);
    let mut costs = Vec::new();
    for _ in 0..3 {
        idx.clear_buffers();
        idx.reset_io();
        let _ = idx.query(&QueryRequest::new(&q));
        costs.push(idx.io_totals().ios());
    }
    assert_eq!(costs[0], costs[1]);
    assert_eq!(costs[1], costs[2]);
    assert!(costs[0] > 0);
}

#[test]
fn warm_buffer_makes_repeat_queries_cheaper() {
    // Without clearing, the 4-page pool absorbs at least the root path.
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 3000,
        seed: 0x11,
        ..WorkloadConfig::default()
    });
    let mut idx = DualKdIndex::new(DualKdConfig::default());
    for m in sim.objects() {
        idx.insert(m);
    }
    let q = sim.gen_query(10.0, 20.0);
    idx.clear_buffers();
    idx.reset_io();
    let _ = idx.query(&QueryRequest::new(&q));
    let cold = idx.io_totals().reads;
    idx.reset_io();
    let _ = idx.query(&QueryRequest::new(&q)); // warm: same pages, some still resident
    let warm = idx.io_totals().reads;
    assert!(warm <= cold, "warm {warm} > cold {cold}");
}

#[test]
fn space_counters_track_page_lifecycle() {
    let mut store: PageStore<u32> = PageStore::new(4);
    let ids: Vec<_> = (0..100u32).map(|i| store.allocate(i)).collect();
    assert_eq!(store.live_pages(), 100);
    for id in ids {
        let _ = store.try_free(id).unwrap();
    }
    assert_eq!(store.live_pages(), 0);
    assert_eq!(store.stats().allocated(), 100);
    assert_eq!(store.stats().freed(), 100);
}

#[test]
fn update_io_includes_both_halves() {
    // An update = remove(old) + insert(new); the measured cost must be
    // at least the cost of two root-to-leaf traversals of one tree.
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 5000,
        seed: 0x12,
        ..WorkloadConfig::default()
    });
    let mut idx = DualBPlusIndex::new(DualBPlusConfig {
        c: 4,
        ..DualBPlusConfig::default()
    });
    for m in sim.objects() {
        idx.insert(m);
    }
    let ups = sim.step();
    let u = &ups[0];
    idx.clear_buffers();
    idx.reset_io();
    assert!(idx.remove(&u.old));
    idx.insert(&u.new);
    idx.clear_buffers(); // pay the dirty-page write-backs
    let total = idx.io_totals();
    // 4 observation points, remove+insert each: ≥ 8 page touches.
    assert!(total.ios() >= 8, "update too cheap: {}", total.ios());
    assert!(total.writes > 0, "update produced no writes");
}

#[test]
fn bulk_load_fill_factor_controls_space() {
    let entries: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i, i)).collect();
    let full = BPlusTree::bulk_load(TreeConfig::default(), &entries, 1.0);
    let loose = BPlusTree::bulk_load(TreeConfig::default(), &entries, 0.5);
    assert!(loose.live_pages() > full.live_pages());
    assert!(
        loose.live_pages() <= full.live_pages() * 3,
        "0.5 fill should roughly double pages: {} vs {}",
        loose.live_pages(),
        full.live_pages()
    );
    full.check_invariants(false);
    loose.check_invariants(false);
}

#[test]
fn query_io_grows_sublinearly_in_n() {
    // Fixed-selectivity queries: cost(5N)/cost(N) must be far below 5
    // for the practical methods (they are output-sensitive).
    let mut costs = Vec::new();
    for n in [2000usize, 10_000] {
        let sim = Simulator1D::new(WorkloadConfig {
            n,
            seed: 0x13,
            ..WorkloadConfig::default()
        });
        let mut idx = DualBPlusIndex::new(DualBPlusConfig::default());
        for m in sim.objects() {
            idx.insert(m);
        }
        // Fixed absolute range => selectivity constant in N.
        let q = mobidx_core::MorQuery1D {
            y1: 100.0,
            y2: 110.0,
            t1: 0.0,
            t2: 10.0,
        };
        idx.clear_buffers();
        idx.reset_io();
        let hits = idx.query(&QueryRequest::new(&q));
        assert!(!hits.is_empty());
        costs.push(idx.io_totals().ios());
    }
    assert!(
        costs[1] < costs[0] * 5,
        "query cost scaled superlinearly: {costs:?}"
    );
}
