//! The 1.5-dimensional problem (§4.1): cars on a freeway network.
//!
//! Routes are polylines on the terrain; objects move 1-dimensionally
//! along them. A region query ("which cars will pass through downtown
//! in the next quarter hour?") is answered by probing the route SAM,
//! clipping each candidate route to the region, and running 1-D MOR
//! queries on the per-route indices — and verified against the exact
//! network oracle.
//!
//! ```sh
//! cargo run --release -p mobidx-examples --example route_network
//! ```

use mobidx_core::method::routes::{RouteIndexConfig, RouteMorIndex};
use mobidx_core::IndexStats;
use mobidx_geom::Rect2;
use mobidx_workload::{RouteNetwork, RouteWorkloadConfig};

fn main() {
    let mut net = RouteNetwork::generate(RouteWorkloadConfig {
        routes: 25,
        segments_per_route: 8,
        n_objects: 20_000,
        seed: 4242,
        ..RouteWorkloadConfig::default()
    });
    println!(
        "network: {} routes, total length {:.0} miles, {} vehicles",
        net.routes.len(),
        net.routes
            .iter()
            .map(mobidx_workload::Route::length)
            .sum::<f64>(),
        net.objects.len()
    );

    let mut idx = RouteMorIndex::new(&RouteIndexConfig::default(), net.routes.clone());
    for o in &net.objects {
        idx.insert(o);
    }

    // Drive the world for 20 minutes with some speed changes.
    for _ in 0..20 {
        for (old, new) in net.step(50) {
            assert!(idx.remove(&old));
            idx.insert(&new);
        }
    }

    // Three regions of interest.
    let regions = [
        ("downtown", Rect2::from_bounds(450.0, 450.0, 550.0, 550.0)),
        ("airport", Rect2::from_bounds(80.0, 820.0, 180.0, 920.0)),
        ("stadium", Rect2::from_bounds(700.0, 150.0, 760.0, 210.0)),
    ];
    let (t1, t2) = (net.now, net.now + 15.0);
    println!("\nforecast window: t in [{t1}, {t2}]");
    println!(
        "{:<10}{:>10}{:>12}{:>14}",
        "region", "vehicles", "query I/O", "routes probed"
    );
    for (name, rect) in regions {
        idx.clear_buffers();
        idx.reset_io();
        let ids = idx.query(&rect, t1, t2);
        let exact = net.brute_force(&rect, t1, t2);
        assert_eq!(ids, exact, "index disagrees with the network oracle");
        let probed = net
            .routes
            .iter()
            .filter(|r| !r.clip_rect(&rect).is_empty())
            .count();
        println!(
            "{:<10}{:>10}{:>12}{:>14}",
            name,
            ids.len(),
            idx.io_totals().ios(),
            probed
        );
    }
    println!("\n(answers verified against the exact network oracle)");
    println!(
        "space: {} pages across SAM + per-route indices",
        idx.io_totals().pages
    );
}
