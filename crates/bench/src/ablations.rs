//! Ablation experiments beyond the paper's four figures (indexed in
//! DESIGN.md as A1–A4).

use crate::{MethodMeasurement, QueryMix, Scale};
use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual2d::{Decomposition2D, Dual4KdIndex};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::mor1::Mor1Index;
use mobidx_core::{Index2D, IndexStats, QueryRequest, SpeedBand};
use mobidx_kdtree::KdConfig;
use mobidx_persist::PersistConfig;
use mobidx_workload::{Simulator1D, Simulator2D, WorkloadConfig, WorkloadConfig2D};

/// A1 — the c trade-off of §3.5.2/§5: query, update, and space cost of
/// the dual-B+ method as the number of observation indices sweeps.
#[must_use]
pub fn ablation_c_tradeoff(n: usize, scale: &Scale, seed: u64) -> Vec<MethodMeasurement> {
    let mut out = Vec::new();
    for c in [2usize, 4, 6, 8, 12] {
        let method = crate::Method {
            name: format!("c={c}"),
            make: Box::new(move || {
                Box::new(DualBPlusIndex::new(DualBPlusConfig {
                    c,
                    ..DualBPlusConfig::default()
                }))
            }),
        };
        out.push(crate::run_scenario(
            &method,
            n,
            QueryMix::Small,
            scale,
            seed,
        ));
    }
    out
}

/// One row of the MOR1 ablation (A2).
#[derive(Debug, Clone)]
pub struct Mor1Row {
    /// Look-ahead horizon `T`.
    pub horizon: f64,
    /// Crossings materialized (`M`).
    pub crossings: usize,
    /// Live pages of the persistent structure.
    pub pages: u64,
    /// Average I/Os per time-slice query.
    pub avg_query_ios: f64,
    /// Average result cardinality.
    pub avg_result: f64,
}

/// A2 — the MOR1 structure (§3.6): space grows with the number of
/// crossings `M` (and hence with the horizon `T`), while queries stay
/// logarithmic.
#[must_use]
pub fn ablation_mor1(n: usize, horizons: &[f64], seed: u64) -> Vec<Mor1Row> {
    // The structure targets the paper's restricted setting: "in practice
    // it is often true that many objects move with approximately equal
    // speeds (one example is cars on a highway) and therefore do not
    // cross very often" — a narrow speed band keeps M near-linear.
    let sim = Simulator1D::new(WorkloadConfig {
        n,
        v_min: 0.9,
        v_max: 1.1,
        seed,
        ..WorkloadConfig::default()
    });
    // Same direction for everyone (one carriageway): opposite-direction
    // pairs would always cross, swamping M.
    let objects: Vec<_> = sim
        .objects()
        .iter()
        .map(|m| mobidx_workload::Motion1D { v: m.v.abs(), ..*m })
        .collect();
    let mut rng_y = 17u64;
    let mut out = Vec::new();
    for &horizon in horizons {
        let mut idx = Mor1Index::build(PersistConfig::default(), &objects, 0.0, horizon);
        let mut query_ios = 0u64;
        let mut results = 0u64;
        let queries = 100;
        for i in 0..queries {
            rng_y = rng_y
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            #[allow(clippy::cast_precision_loss)]
            let y1 = (rng_y >> 33) as f64 % 950.0;
            #[allow(clippy::cast_precision_loss)]
            let tq = horizon * f64::from(i) / f64::from(queries);
            idx.clear_buffers();
            idx.reset_io();
            let ids = idx.query(tq, y1, y1 + 10.0);
            query_ios += idx.io_totals().ios();
            results += ids.len() as u64;
        }
        #[allow(clippy::cast_precision_loss)]
        out.push(Mor1Row {
            horizon,
            crossings: idx.crossings(),
            pages: idx.io_totals().pages,
            avg_query_ios: query_ios as f64 / f64::from(queries),
            avg_result: results as f64 / f64::from(queries),
        });
    }
    out
}

/// A3 — worst-case-flavored comparison (Theorem 1's regime): time-slice
/// ("line") queries with narrow ranges, where linear-space structures
/// face the `√n` behavior; includes the partition-tree method.
#[must_use]
pub fn ablation_adversarial(n: usize, seed: u64) -> Vec<MethodMeasurement> {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n,
        seed,
        ..WorkloadConfig::default()
    });
    // A few steps so t0 values spread.
    for _ in 0..5 {
        let _ = sim.step();
    }
    let mut methods = crate::paper_methods();
    methods.push(crate::ptree_method());
    let mut out = Vec::new();
    for method in &methods {
        let mut idx = (method.make)();
        for m in sim.objects() {
            idx.insert(m);
        }
        let mut query_ios = 0u64;
        let mut results = 0u64;
        let mut candidates = 0u64;
        let mut hits = 0u64;
        let mut reads = 0u64;
        let latency = mobidx_obs::Histogram::new();
        let queries: u32 = 60;
        let mut local = mobidx_workload::Simulator1D::new(WorkloadConfig {
            n: 1,
            seed: seed ^ 0xABCD,
            ..WorkloadConfig::default()
        });
        for _ in 0..queries {
            // Zero-width time window: a line query in the dual plane.
            let mut q = local.gen_query(10.0, 1e-9);
            q.t1 = sim.now() + 30.0;
            q.t2 = q.t1;
            idx.clear_buffers();
            idx.reset_io();
            let out = idx.query(&QueryRequest::new(&q).traced());
            let trace = out.trace.clone().expect("traced request yields a trace");
            let ids = out.ids;
            query_ios += trace.ios();
            results += ids.len() as u64;
            candidates += trace.candidates;
            hits += trace.hits;
            reads += trace.reads;
            latency.record(trace.latency_nanos);
        }
        #[allow(clippy::cast_precision_loss)]
        out.push(MethodMeasurement {
            method: method.name.clone(),
            n,
            avg_query_ios: query_ios as f64 / f64::from(queries),
            avg_update_ios: 0.0,
            avg_update_ios_batched: 0.0,
            update_batch: 0,
            updates_batched: 0,
            pages: idx.io_totals().pages,
            avg_result: results as f64 / f64::from(queries),
            queries: queries as usize,
            updates: 0,
            avg_candidates: candidates as f64 / f64::from(queries),
            false_hit_rate: rate(candidates.saturating_sub(results), candidates),
            buffer_hit_rate: rate(hits, hits + reads),
            latency: latency.snapshot(),
            bands: idx.band_io().unwrap_or_default(),
        });
    }
    out
}

/// `num / den` as a fraction; 0.0 when the denominator is 0.
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        num as f64 / den as f64
    }
}

/// A4 — the 2-D methods of §4.2: 4-D kd-tree vs axis decomposition.
#[must_use]
pub fn ablation_2d(n: usize, seed: u64) -> Vec<MethodMeasurement> {
    let mut sim = Simulator2D::new(WorkloadConfig2D {
        n,
        seed,
        ..WorkloadConfig2D::default()
    });
    for _ in 0..5 {
        let _ = sim.step();
    }
    let mut out = Vec::new();
    let mut indexes: Vec<Box<dyn Index2D>> = vec![
        Box::new(Dual4KdIndex::new(KdConfig::default(), SpeedBand::paper())),
        Box::new(Decomposition2D::new(DualBPlusConfig {
            c: 4,
            tree: TreeConfig::default(),
            ..DualBPlusConfig::default()
        })),
    ];
    for idx in &mut indexes {
        for m in sim.objects() {
            idx.insert(m);
        }
        let mut query_ios = 0u64;
        let mut update_ios = 0u64;
        let mut results = 0u64;
        let mut candidates = 0u64;
        let mut hits = 0u64;
        let mut reads = 0u64;
        let latency = mobidx_obs::Histogram::new();
        let queries: u32 = 60;
        for _ in 0..queries {
            let q = sim.gen_query(150.0, 60.0);
            idx.clear_buffers();
            idx.reset_io();
            let out = idx.query(&QueryRequest::new(&q).traced());
            let trace = out.trace.clone().expect("traced request yields a trace");
            let ids = out.ids;
            query_ios += trace.ios();
            results += ids.len() as u64;
            candidates += trace.candidates;
            hits += trace.hits;
            reads += trace.reads;
            latency.record(trace.latency_nanos);
        }
        let ups = sim.step();
        let n_ups = ups.len();
        for u in &ups {
            idx.clear_buffers();
            idx.reset_io();
            let _ = idx.remove(&u.old);
            idx.insert(&u.new);
            idx.clear_buffers();
            update_ios += idx.io_totals().ios();
        }
        #[allow(clippy::cast_precision_loss)]
        out.push(MethodMeasurement {
            method: idx.name(),
            n,
            avg_query_ios: query_ios as f64 / f64::from(queries),
            avg_update_ios: update_ios as f64 / n_ups.max(1) as f64,
            avg_update_ios_batched: 0.0,
            update_batch: 0,
            updates_batched: 0,
            pages: idx.io_totals().pages,
            avg_result: results as f64 / f64::from(queries),
            queries: queries as usize,
            updates: n_ups,
            avg_candidates: candidates as f64 / f64::from(queries),
            false_hit_rate: rate(candidates.saturating_sub(results), candidates),
            buffer_hit_rate: rate(hits, hits + reads),
            latency: latency.snapshot(),
            bands: idx.band_io().unwrap_or_default(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mor1_space_grows_with_horizon() {
        let rows = ablation_mor1(2000, &[10.0, 40.0, 160.0], 3);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].crossings < rows[2].crossings);
        assert!(rows[0].pages <= rows[2].pages);
    }

    #[test]
    fn ablation_2d_smoke() {
        let rows = ablation_2d(2000, 5);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.avg_query_ios > 0.0, "{}", r.method);
        }
    }
}
