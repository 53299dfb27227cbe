//! Serving-tier benchmarks of the sharded front end. Each flag runs one
//! scenario; with none, the usage line prints and the exit status is 2.
//!
//! ```text
//! serve_bench [--scale quick|smoke|full] [--seed N] [--json] [--batch] [--read-heavy]
//!             [--durable] [--repartition] [--trace-out FILE] [--telemetry-out FILE]
//!             [--diagnose FILE]
//! ```
//!
//! `--json` writes `BENCH_serve_<scale>.json` (schema in
//! `EXPERIMENTS.md`) with the cells of `--batch` and `--read-heavy`.
//! Stores stay in memory, so the wall-clock columns are CPU cost; the
//! page counts are deterministic per seed and are what CI gates.
//!
//! `--batch` runs the batched-update sweep at S = 4: the same seeded
//! update stream re-chunked into client batches of 1, 8, 32 and 128
//! ops. Its `ios/op` column shows the grouped write path amortizing
//! page I/O across ops; with `--json` the cells land in the report's
//! `batch_cells` array.
//!
//! `--read-heavy` runs the snapshot-read sweep at S = 4: reader threads
//! replaying a seeded query set against the latest published snapshot
//! while writer threads race group commits, at reader:writer ratios
//! 2:1, 4:1 and 8:2. The `reads/q` column (frozen pages per query,
//! from a serial spanned probe of the warm tree) is what the regression
//! gate compares. With `--json`
//! the cells land in the report's `read_cells` array.
//!
//! `--trace-out FILE` runs a short traced-query session at S = 4 and
//! writes its span trees as a Chrome trace-event document: open it in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see the
//! client lane fan out into one lane per shard's read leg.
//!
//! `--telemetry-out FILE` runs a short serving session at S = 4 with
//! the continuous-telemetry sampler attached (100 ms tick) and writes
//! the JSON telemetry report — per-shard and aggregate time series plus
//! the sampler-overhead measurement (schema in EXPERIMENTS.md).
//! `mobidx-top --check FILE` validates such a report.
//!
//! `--diagnose FILE` runs the induced-fault diagnostic scenario
//! ([`mobidx_bench::diagnose`]): one shard WAL-fsync-stalled
//! through `FsyncPolicy::Always` file stores, another poisoned mid-run,
//! with the telemetry sampler, default SLOs, and flight recorder
//! attached. The dumped diagnostic bundle lands in FILE and the
//! doctor's ranked attribution prints; `mobidx-doctor --check FILE`
//! re-validates and re-diagnoses the bundle (CI runs exactly that).
//!
//! `--repartition` runs the drift → online-repartition acceptance
//! scenario ([`mobidx_bench::repartition_bench`]): a
//! two-band velocity shift degrades a `VpDualIndex`-sharded database's
//! cold query I/O, the drift subscription repartitions it online, and
//! the recovered I/O must land within 10 % of a from-scratch rebuild
//! over the same population (the process exits non-zero otherwise —
//! this is a CI gate). Combined with `--telemetry-out FILE`, the
//! telemetry report written is the one sampled *during* this scenario —
//! drift event, repartition span, and `repartition_*` series included —
//! instead of the generic serving-session capture.
//!
//! `--durable` runs the durable sweep: the same seeded update stream
//! against [`FileBackend`](mobidx_pager::FileBackend)-armed shards under
//! each fsync policy, measuring update throughput with the write-ahead
//! log in the write path, the WAL's record/fsync/byte cost (in total and
//! per update of the measured phase), and — after dropping the database
//! — the wall-clock time to reopen and replay every store (schema in
//! EXPERIMENTS.md).

use mobidx_bench::diagnose::{run_diagnose, DiagnoseConfig};
use mobidx_bench::durable::{run_durable_sweep, DurableConfig};
use mobidx_bench::repartition_bench::{run_repartition_e2e, RepartitionE2eConfig};
use mobidx_bench::throughput::{run_batch_sweep, run_read_heavy, ThroughputConfig};
use mobidx_bench::{throughput, Scale};

/// Client batch sizes of the `--batch` sweep: 1 is the per-op baseline,
/// the rest exercise the grouped write path.
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// Reader:writer thread ratios of the `--read-heavy` sweep.
const READ_RATIOS: [(usize, usize); 3] = [(2, 1), (4, 1), (8, 2)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut seed = 0x5EEDu64;
    let mut json = false;
    let mut batch = false;
    let mut read_heavy = false;
    let mut durable = false;
    let mut repartition = false;
    let mut trace_out: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut diagnose_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--batch" => {
                batch = true;
                i += 1;
            }
            "--read-heavy" => {
                read_heavy = true;
                i += 1;
            }
            "--durable" => {
                durable = true;
                i += 1;
            }
            "--repartition" => {
                repartition = true;
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--telemetry-out" => {
                telemetry_out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--diagnose" => {
                diagnose_out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--scale" => {
                let v = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                (scale, scale_name) = match v.as_str() {
                    "quick" => (Scale::quick(), "quick"),
                    "smoke" => (Scale::smoke(), "smoke"),
                    "full" => (Scale::full(), "full"),
                    _ => usage(),
                };
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let any_mode = batch
        || read_heavy
        || durable
        || repartition
        || trace_out.is_some()
        || telemetry_out.is_some()
        || diagnose_out.is_some();
    if !any_mode {
        usage();
    }

    let cfg = ThroughputConfig::from_scale(&scale, seed);
    println!(
        "mobidx serving benchmarks — scale: {scale_name}, N = {}, seed: {seed}",
        cfg.n
    );
    println!(
        "{} measured update instants, queue depth {}",
        cfg.measure_instants, cfg.queue_depth
    );

    let batch_cells = if batch {
        run_batch_sweep(&cfg, &BATCH_SIZES)
    } else {
        Vec::new()
    };
    if batch {
        println!("\nbatched updates (S = 4):");
        println!(
            "{:>7} {:>10} {:>12} {:>9} {:>12} {:>11}",
            "batch", "ops", "ops/sec", "ios/op", "drained avg", "drained max"
        );
        let base_iop = batch_cells
            .iter()
            .find(|c| c.batch == 1)
            .map_or(0.0, |c| c.ios_per_op);
        for c in &batch_cells {
            println!(
                "{:>7} {:>10} {:>12.1} {:>9.2} {:>12.1} {:>11}  ({:.2}x I/O vs batch=1)",
                c.batch,
                c.update_ops,
                c.update_ops_per_sec,
                c.ios_per_op,
                c.drained_mean,
                c.drained_max,
                if base_iop > 0.0 {
                    c.ios_per_op / base_iop
                } else {
                    0.0
                }
            );
        }
    }

    let read_cells = if read_heavy {
        run_read_heavy(&cfg, 4, &READ_RATIOS)
    } else {
        Vec::new()
    };
    if read_heavy {
        println!(
            "\nread-heavy (S = 4, {} queries per reader):",
            cfg.reader_queries
        );
        println!(
            "{:>9} {:>9} {:>12} {:>9} {:>9}",
            "readers", "writers", "snap q/s", "reads/q", "epochs"
        );
        for c in &read_cells {
            println!(
                "{:>9} {:>9} {:>12.1} {:>9.1} {:>9}",
                c.readers,
                c.writers,
                c.snapshot_queries_per_sec,
                c.reads_per_query,
                c.epochs_advanced
            );
        }
    }

    if durable {
        let dcfg = DurableConfig::from_scale(&scale, seed);
        println!(
            "\ndurable sweep (S = {}, N = {}, {} update instants, FileBackend per store):",
            dcfg.shards, dcfg.n, dcfg.instants
        );
        println!(
            "{:>10} {:>7} {:>9} {:>12} {:>11} {:>10} {:>10} {:>10} {:>12} {:>11} {:>9}",
            "fsync",
            "stores",
            "ops",
            "ops/sec",
            "wal recs",
            "fsyncs",
            "wal KiB",
            "wal B/op",
            "recovery ms",
            "replayed",
            "pages"
        );
        for c in run_durable_sweep(&dcfg) {
            #[allow(clippy::cast_precision_loss)]
            let kib = c.wal_bytes as f64 / 1024.0;
            println!(
                "{:>10} {:>7} {:>9} {:>12.1} {:>11} {:>10} {:>10.1} {:>10.0} {:>12.2} {:>11} {:>9}",
                c.policy,
                c.stores,
                c.update_ops,
                c.update_ops_per_sec,
                c.wal_records,
                c.wal_fsyncs,
                kib,
                c.wal_bytes_per_op,
                c.recovery_ms,
                c.replayed_records,
                c.recovered_pages
            );
        }
    }

    if repartition {
        let e2e_cfg = RepartitionE2eConfig {
            seed,
            telemetry: telemetry_out.is_some(),
            ..RepartitionE2eConfig::default()
        };
        println!(
            "\ndrift -> repartition e2e (S = {}, N = {}, {} cold queries per phase, seed {}):",
            e2e_cfg.shards, e2e_cfg.n, e2e_cfg.queries, e2e_cfg.seed
        );
        let out = run_repartition_e2e(&e2e_cfg);
        print!("{}", out.render_table());
        if let (Some(path), Some(text)) = (telemetry_out.take(), out.telemetry_json.as_deref()) {
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path} (telemetry report; validate with mobidx-top --check)");
        }
        if !out.within_budget() {
            eprintln!(
                "repartition gate failed: {:.3} > {:.2}",
                out.ratio, out.budget
            );
            std::process::exit(1);
        }
    }

    if json {
        let path = format!("BENCH_serve_{scale_name}.json");
        let text = throughput::render_report(scale_name, &cfg, &batch_cells, &read_cells);
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote {path}");
    }

    if let Some(path) = trace_out {
        let text = throughput::capture_trace(&cfg, 4, 32);
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote {path} (Chrome trace-event format; open in Perfetto)");
    }

    if let Some(path) = telemetry_out {
        let text = throughput::capture_telemetry(&cfg, 4, std::time::Duration::from_millis(100));
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote {path} (telemetry report; validate with mobidx-top --check)");
    }

    if let Some(path) = diagnose_out {
        let out = run_diagnose(&DiagnoseConfig {
            seed,
            ..DiagnoseConfig::default()
        });
        std::fs::write(&path, out.bundle.render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\ninduced-fault diagnostic run (bundle: {path}):");
        println!("automatic captures: {:?}", out.auto_triggers);
        print!("{}", out.report.render());
        println!("validate with: mobidx-doctor --check {path}");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--scale quick|smoke|full] [--seed N] [--json] [--batch] \
         [--read-heavy] [--durable] [--repartition] [--trace-out FILE] \
         [--telemetry-out FILE] [--diagnose FILE]"
    );
    std::process::exit(2);
}
