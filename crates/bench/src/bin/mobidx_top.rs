//! `mobidx-top` — a `top(1)`-style live view of a serving
//! [`ShardedDb`] through its continuous telemetry.
//!
//! ```text
//! mobidx-top [--shards S] [--n OBJS] [--ticks T] [--refresh-ms MS] [--seed N] [--once]
//! mobidx-top --check FILE
//! ```
//!
//! Live mode builds an id-hash-sharded [`VpDualIndex`] database with
//! the background repartitioner attached, drives it from a workload
//! thread (uniform velocities that switch to a two-band rush-hour mix
//! halfway through, so the drift detector — and then the repartitioner
//! — have something to find), attaches a [`ServeSampler`], and redraws
//! a per-shard table every refresh: queue depth, query latency percentiles, I/O
//! rates, snapshot-read and view-build rates, the shard's current
//! velocity-band count and the age (in harvest ticks) of its last
//! repartition, per-shard
//! SLO status (from the sampler's default burn-rate objectives), the
//! commit epoch and its age, how many applies published no snapshot and
//! how many snapshots were built on demand, the read pool's counters, and
//! the workload drift score. After `--ticks` refreshes it stops the
//! repartitioner and the load thread, drops the sampler, and exits
//! cleanly.
//!
//! `--once` is the non-TTY mode: one warm-up window, one frame, exit —
//! suitable for cron probes or CI logs where a redrawing table is
//! noise. It implies `--ticks 1` and skips the rush-hour switch.
//!
//! `--check FILE` validates a JSON telemetry report written by
//! `serve_bench --telemetry-out` (CI runs this): the report must parse,
//! declare `kind: "mobidx-telemetry"`, and hold at least one recorded
//! sample for every shard's `queue_depth` series. Exit status 0 on
//! success, 1 on a malformed or incomplete report.

use mobidx_core::{QueryRequest, VpDualConfig, VpDualIndex};
use mobidx_serve::{
    start_repartitioner, Batch, IdHashShard, RepartitionConfig, SamplerConfig, ServeConfig,
    ServeSampler, ShardedDb,
};
use mobidx_workload::{Simulator1D, VelocityModel, WorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shards = 4usize;
    let mut n = 5000usize;
    let mut ticks = 10u64;
    let mut refresh_ms = 500u64;
    let mut seed = 0x701u64;
    let mut once = false;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let parse_next = |what: &str| -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match args[i].as_str() {
            "--check" => {
                check = Some(parse_next("--check"));
                i += 2;
            }
            "--shards" => {
                shards = parse_next("--shards").parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--n" => {
                n = parse_next("--n").parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--ticks" => {
                ticks = parse_next("--ticks").parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--refresh-ms" => {
                refresh_ms = parse_next("--refresh-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                seed = parse_next("--seed").parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    if let Some(path) = check {
        check_report(&path);
        return;
    }
    assert!(
        shards > 0 && ticks > 0 && refresh_ms > 0,
        "sizes must be positive"
    );
    live(
        shards,
        n,
        if once { 1 } else { ticks },
        refresh_ms,
        seed,
        once,
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: mobidx-top [--shards S] [--n OBJS] [--ticks T] [--refresh-ms MS] [--seed N] \
         [--once]\n\
         \x20      mobidx-top --check FILE"
    );
    std::process::exit(2);
}

/// Validates a `serve_bench --telemetry-out` report (the rules and
/// their tests live in [`mobidx_bench::telemetry_check`]).
fn check_report(path: &str) {
    let fail = |msg: &str| -> ! {
        eprintln!("mobidx-top --check {path}: {msg}");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("unreadable: {e}")));
    match mobidx_bench::telemetry_check::validate_report(&text) {
        Ok(summary) => println!("{summary}"),
        Err(msg) => fail(&msg),
    }
}

/// Runs the live view (see module docs).
fn live(shards: usize, n: usize, ticks: u64, refresh_ms: u64, seed: u64, once: bool) {
    let db = Arc::new(ShardedDb::new(
        ServeConfig {
            shards,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| VpDualIndex::new(VpDualConfig::default()),
    ));
    let mut sim = Simulator1D::new(WorkloadConfig {
        n,
        seed,
        ..WorkloadConfig::default()
    });
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
    }
    db.apply(&load).expect("initial load");

    let tick = Duration::from_millis(refresh_ms.min(100));
    let sampler = db.start_sampler(SamplerConfig {
        tick,
        capacity: 4096,
    });
    // The repartitioner watches the same drift detector the table
    // reports on: when the rush-hour switch fires a drift event, the
    // band boundaries get re-optimized live and the per-shard `bands`
    // and `rp-age` columns show it happening.
    let repartitioner = start_repartitioner(&db, RepartitionConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let rush = Arc::new(AtomicBool::new(false));
    let load_stop = Arc::clone(&stop);
    let load_rush = Arc::clone(&rush);
    // The workload thread shares the database with the repartitioner;
    // the table below reads only the sampler's series. When the main
    // thread raises `rush` (at the halfway frame), the velocity mix
    // turns two-band.
    let refresh = Duration::from_millis(refresh_ms);
    let loader_db = Arc::clone(&db);
    let loader = std::thread::spawn(move || {
        let db = loader_db;
        let mut switched = false;
        while !load_stop.load(Ordering::Relaxed) {
            if !switched && load_rush.load(Ordering::Relaxed) {
                sim.set_velocity_model(VelocityModel::TwoBand {
                    fast_frac: 0.5,
                    band_frac: 0.15,
                });
                switched = true;
            }
            let mut batch = Batch::new();
            for u in sim.step() {
                batch.update(u.new);
            }
            db.apply(&batch).expect("update batch");
            for _ in 0..4 {
                let q = sim.gen_query(150.0, 60.0);
                db.query(&QueryRequest::new(&q)).expect("query");
            }
        }
    });

    for frame in 1..=ticks {
        std::thread::sleep(refresh);
        if !once && frame > ticks / 2 && !rush.load(Ordering::Relaxed) {
            rush.store(true, Ordering::Relaxed);
            println!("\n>>> switching workload to two-band rush hour");
        }
        render(&sampler, frame, ticks, tick);
    }
    stop.store(true, Ordering::Relaxed);
    loader.join().expect("workload thread");
    let passes = repartitioner.stop();
    println!(
        "done: {} harvest ticks, {} repartitioner passes, {} repartitions",
        sampler.ticks(),
        passes,
        db.repartition_stats().completed(),
    );
}

/// Draws one frame of the per-shard table.
fn render(sampler: &ServeSampler, frame: u64, frames: u64, tick: Duration) {
    let latest = |base: &str, shard: usize| -> f64 {
        sampler
            .series_for(base, shard)
            .latest()
            .map_or(0.0, |s| s.value)
    };
    let aggregate = |name: &str| -> f64 {
        sampler
            .telemetry()
            .get(name)
            .and_then(|s| s.latest())
            .map_or(0.0, |s| s.value)
    };
    let per_sec = 1.0 / tick.as_secs_f64().max(1e-9);
    println!(
        "\nmobidx-top — frame {frame}/{frames}, harvest tick {} ({} ms interval)",
        sampler.ticks(),
        tick.as_millis()
    );
    let alerts = sampler.active_alerts();
    println!(
        "{:>5} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>5} {:>6} {:>4} {:>5}",
        "shard",
        "depth",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "reads/s",
        "writes/s",
        "queries/s",
        "views/s",
        "bands",
        "rp-age",
        "poi",
        "slo"
    );
    for shard in 0..sampler.shards() {
        // SLO status from the sampler's default per-shard objectives:
        // a firing fault objective beats a firing latency burn.
        let slo = if alerts
            .iter()
            .any(|a| a.name == format!("shard-fault-s{shard}"))
        {
            "FAULT"
        } else if alerts
            .iter()
            .any(|a| a.name == format!("query-p99-s{shard}"))
        {
            "BURN"
        } else {
            "ok"
        };
        // A shard that has never repartitioned shows "-" instead of an
        // age counting up since process start.
        let rp_age = if latest("repartitions", shard) > 0.0 {
            format!("{:.0}", latest("repartition_age_ticks", shard))
        } else {
            "-".to_owned()
        };
        println!(
            "{:>5} {:>6.0} {:>9.0} {:>9.0} {:>9.0} {:>9.1} {:>9.1} {:>9.1} {:>8.1} {:>5.0} {:>6} {:>4} {:>5}",
            shard,
            latest("queue_depth", shard),
            latest("query_p50_us", shard),
            latest("query_p95_us", shard),
            latest("query_p99_us", shard),
            latest("io_reads", shard) * per_sec,
            latest("io_writes", shard) * per_sec,
            latest("queries", shard) * per_sec,
            latest("views_built", shard) * per_sec,
            latest("bands", shard),
            rp_age,
            if latest("poisoned", shard) > 0.0 {
                "YES"
            } else {
                "-"
            },
            slo,
        );
    }
    println!(
        "drift l1 {:.3} ({} events) | updates {:.0} | spans {:.0} recorded / {:.0} dropped",
        aggregate("drift_l1_millis") / 1000.0,
        aggregate("drift_events"),
        aggregate("updates_observed"),
        aggregate("spans_recorded"),
        aggregate("spans_dropped"),
    );
    println!(
        "repartitions {:.0} ({:.0} attempts, {:.0} skipped) | {:.0} objects moved | last {:.0} ms",
        aggregate("repartition_events"),
        aggregate("repartition_attempts"),
        aggregate("repartition_skipped"),
        aggregate("repartition_moved_total"),
        aggregate("repartition_last_ms"),
    );
    println!(
        "commit epoch {:.0} (age {:.0} ticks) | {:.0} queries total | \
         {:.0} applies unpublished, {:.0} snapshots on demand",
        aggregate("snapshot_epoch"),
        aggregate("snapshot_age_ticks"),
        aggregate("queries_total"),
        aggregate("applies_unpublished"),
        aggregate("snapshots_on_demand"),
    );
    println!(
        "read pool depth {:.0} | {:.0} submitted/s, {:.0} stolen/s | bundles captured {}",
        aggregate("readpool_depth"),
        aggregate("readpool_submitted") * per_sec,
        aggregate("readpool_stolen") * per_sec,
        sampler.recorder().captures(),
    );
    if alerts.is_empty() {
        println!(
            "alerts: none ({} raised since start)",
            sampler.slo_engine().alerts_raised()
        );
    } else {
        println!("alerts: {} active", alerts.len());
        for a in &alerts {
            println!(
                "  ! {} ({}) on {} — {:.2} vs threshold {:.2}",
                a.name,
                a.kind.as_str(),
                a.series,
                a.value,
                a.threshold
            );
        }
    }
}
