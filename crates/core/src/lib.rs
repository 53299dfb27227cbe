//! # mobidx-core — indexing mobile objects (Kollios, Gunopulos, Tsotras; PODS '99)
//!
//! The paper's contribution: answer **MOR queries** — "report every
//! mobile object inside a spatial range at some instant of a future time
//! window `[t1q, t2q]`" — over objects whose location is a linear
//! function of time, in the external-memory model.
//!
//! This crate assembles the substrates (`mobidx-pager`, `-geom`,
//! `-bptree`, `-rstar`, `-kdtree`, `-interval`, `-ptree`, `-persist`)
//! into the paper's methods:
//!
//! | Module | Paper | Method |
//! |---|---|---|
//! | [`dual`] | §3.2 | Hough-X / Hough-Y dual transforms, Proposition 1 query regions, the approximation-error formula `E` |
//! | [`method::seg_rtree`] | §3.1, §5 | baseline: trajectory segments as MBRs in an R\*-tree |
//! | [`method::dual_kd`] | §3.5.1 | Hough-X dual points in a paged kd-tree, simplex search, two-generation index rotation every `T_period = y_max / v_min` |
//! | [`method::dual_bplus`] | §3.5.2 | the practical method: `c` observation B+-trees at equidistant `y_r`, query routed to the `E`-minimizing index, exact speed filtering, optional subterrain interval indices |
//! | [`method::ptree`] | §3.4 | dual points in the dynamic external partition tree (the "(almost) optimal" solution) |
//! | [`method::mor1`] | §3.6 | the logarithmic-time structure for bounded-horizon time-slice queries (crossings + persistent list B-tree + staggered rebuild) |
//! | [`method::routes`] | §4.1 | the 1.5-dimensional problem: route network in a SAM, per-route 1-D indices on arc length |
//! | [`method::dual2d`] | §4.2 | the full 2-D problem: 4-D duals in kd/partition trees, and the axis-decomposition method |
//! | [`method::join`] | §7 (future work) | within-distance joins among mobile objects (plane sweep + exact linear-motion distance) |
//! | [`method::vp_dual`] | §3.5.2 + velocity partitioning | per-speed-band dual-B+ sub-indexes with analytically optimized band boundaries and incremental online repartitioning |
//! | [`db`] | §2 | [`MotionDb`]: the motion-database facade — update-by-id over any index |
//!
//! Every method implements [`Index1D`] (or its 2-D counterpart), is
//! exercised against brute-force oracles in the test suite, and reports
//! I/O through [`IoTotals`] — the quantity the paper's Figures 6–9 plot.

pub mod db;
pub mod dual;
pub mod ids;
pub mod method;

pub use db::{sort_by_dual_locality, BatchError, DbOp, DuplicateId, MotionDb, UnknownId};
pub use dual::{hough_x_point, hough_x_query, hough_y_b, SpeedBand};
pub use ids::merge_sorted_ids;
pub use method::vp_dual::{
    analytic_edges, geometric_edges, optimize_boundaries, VpDualConfig, VpDualIndex,
};
pub use method::{
    BandIo, FrozenIndex1D, FrozenReadStats, Index1D, Index2D, IndexStats, IoTotals, QueryOutput,
    QueryRequest,
};

// Re-export the vocabulary types so downstream users need only this crate.
pub use mobidx_workload::{MorQuery1D, MorQuery2D, Motion1D, Motion2D};
