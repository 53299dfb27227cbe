//! The 1.5-dimensional problem (§4.1): objects on a network of 1-D
//! routes.
//!
//! Routes (polylines) are indexed by a standard SAM — an R\*-tree over
//! their segment MBRs. Objects move 1-dimensionally along a route's arc
//! length and are indexed per route with the practical method of §3.5.2.
//! A 2-D MOR query is answered by (1) probing the SAM with the query
//! rectangle, (2) clipping each candidate route to the rectangle, which
//! yields arc-length intervals, and (3) issuing one 1-D MOR query per
//! interval on that route's index.

use crate::ids::assemble;
use crate::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use crate::method::{Index1D, IndexStats};
use mobidx_geom::Rect2;
use mobidx_pager::Store;
use mobidx_rstar::{RStarConfig, RStarTree};
use mobidx_workload::{MorQuery1D, Motion1D, Route, RouteObject};
use std::fmt;

/// Configuration of the route-network index.
#[derive(Debug, Clone, Copy)]
pub struct RouteIndexConfig {
    /// SAM (R\*-tree) parameters.
    pub sam: RStarConfig,
    /// Per-route 1-D index parameters; the terrain of route `r` is its
    /// arc length (set per route automatically).
    pub per_route: DualBPlusConfig,
}

impl Default for RouteIndexConfig {
    fn default() -> Self {
        Self {
            sam: RStarConfig::default(),
            per_route: DualBPlusConfig {
                c: 2,
                ..DualBPlusConfig::default()
            },
        }
    }
}

/// The §4.1 index.
#[derive(Debug)]
pub struct RouteMorIndex {
    routes: Vec<Route>,
    sam: RStarTree<(u32, u32)>,
    per_route: Vec<DualBPlusIndex>,
}

impl RouteMorIndex {
    /// Builds the SAM over the route network and one empty 1-D index per
    /// route.
    #[must_use]
    pub fn new(cfg: &RouteIndexConfig, routes: Vec<Route>) -> Self {
        let mut sam = RStarTree::new(cfg.sam);
        for route in &routes {
            for (seg_idx, (_, seg)) in route.segments().enumerate() {
                sam.insert(
                    seg.mbr(),
                    (route.id, u32::try_from(seg_idx).expect("segment count")),
                );
            }
        }
        let per_route = routes
            .iter()
            .map(|r| {
                DualBPlusIndex::new(DualBPlusConfig {
                    terrain: r.length(),
                    ..cfg.per_route
                })
            })
            .collect();
        Self {
            routes,
            sam,
            per_route,
        }
    }

    /// The route set.
    #[must_use]
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    fn arc_motion(o: &RouteObject) -> Motion1D {
        Motion1D {
            id: o.id,
            t0: o.t0,
            y0: o.s0,
            v: o.v,
        }
    }

    /// Inserts a route object (1-D record on its route's index).
    pub fn insert(&mut self, o: &RouteObject) {
        self.per_route[o.route as usize].insert(&Self::arc_motion(o));
    }

    /// Removes a route object. Returns whether it was present.
    pub fn remove(&mut self, o: &RouteObject) -> bool {
        self.per_route[o.route as usize].remove(&Self::arc_motion(o))
    }

    /// The 2-D MOR query over the network: objects inside `rect` at some
    /// instant of `[t1, t2]`, by SAM probe + per-route decomposition.
    pub fn query(&mut self, rect: &Rect2, t1: f64, t2: f64) -> Vec<u64> {
        // (1) Which routes does the rectangle touch?
        let mut route_hit = vec![false; self.routes.len()];
        self.sam.search_with(rect, |_, (rid, _)| {
            route_hit[rid as usize] = true;
        });
        // (2)+(3) Clip and run 1-D queries.
        let mut ids = Vec::new();
        let mut route_ids = Vec::new();
        assemble(&mut ids, |candidates| {
            for (r, hit) in route_hit.iter().enumerate() {
                if !hit {
                    continue;
                }
                for (s_lo, s_hi) in self.routes[r].clip_rect(rect) {
                    let q = MorQuery1D {
                        y1: s_lo,
                        y2: s_hi,
                        t1,
                        t2,
                    };
                    self.per_route[r].search(&q, &mut route_ids);
                    candidates.extend_from_slice(&route_ids);
                }
            }
        });
        ids
    }
}

/// The SAM (`sam`), then every store of route `r`'s index (`route{r}`).
impl IndexStats for RouteMorIndex {
    fn name(&self) -> String {
        "routes".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("sam"), self.sam.store());
        for (r, idx) in self.per_route.iter().enumerate() {
            idx.stores(&mut |_, store| visit(format_args!("route{r}"), store));
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.sam.store_mut());
        for idx in &mut self.per_route {
            idx.stores_mut(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_bptree::TreeConfig;
    use mobidx_workload::{RouteNetwork, RouteWorkloadConfig};

    fn small_cfg() -> RouteIndexConfig {
        RouteIndexConfig {
            sam: RStarConfig::with_max(16),
            per_route: DualBPlusConfig {
                c: 2,
                tree: TreeConfig {
                    leaf_cap: 16,
                    branch_cap: 16,
                    buffer_pages: 4,
                },
                ..DualBPlusConfig::default()
            },
        }
    }

    #[test]
    fn matches_network_brute_force() {
        let mut net = RouteNetwork::generate(RouteWorkloadConfig {
            routes: 8,
            segments_per_route: 5,
            n_objects: 400,
            seed: 17,
            ..RouteWorkloadConfig::default()
        });
        let mut idx = RouteMorIndex::new(&small_cfg(), net.routes.clone());
        for o in &net.objects {
            idx.insert(o);
        }
        // Run a while, keeping the index in sync.
        for _ in 0..20 {
            for (old, new) in net.step(10) {
                assert!(idx.remove(&old), "stale {old:?}");
                idx.insert(&new);
            }
        }
        // Random rectangles.
        let probes = [
            (100.0, 100.0, 400.0, 400.0),
            (0.0, 0.0, 1000.0, 1000.0),
            (600.0, 200.0, 700.0, 900.0),
            (50.0, 800.0, 120.0, 860.0),
        ];
        let t1 = net.now;
        for (x1, y1, x2, y2) in probes {
            let rect = Rect2::from_bounds(x1, y1, x2, y2);
            for dt in [0.0, 15.0, 45.0] {
                let got = idx.query(&rect, t1, t1 + dt);
                let want = net.brute_force(&rect, t1, t1 + dt);
                assert_eq!(got, want, "rect=({x1},{y1},{x2},{y2}) dt={dt}");
            }
        }
    }

    #[test]
    fn query_prunes_far_routes() {
        let net = RouteNetwork::generate(RouteWorkloadConfig {
            routes: 30,
            n_objects: 3000,
            seed: 29,
            ..RouteWorkloadConfig::default()
        });
        let mut idx = RouteMorIndex::new(&small_cfg(), net.routes.clone());
        for o in &net.objects {
            idx.insert(o);
        }
        idx.clear_buffers();
        idx.reset_io();
        let rect = Rect2::from_bounds(10.0, 10.0, 60.0, 60.0);
        let _ = idx.query(&rect, 0.0, 5.0);
        let cost = idx.io_totals().reads;
        let pages = idx.io_totals().pages;
        assert!(
            cost < pages / 2,
            "tiny rectangle query read {cost} of {pages} pages"
        );
    }
}
