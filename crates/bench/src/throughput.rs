//! Serving-tier sweeps over a [`ShardedDb`] sharded by speed band: the
//! grouped write path and the snapshot read path.
//!
//! The scenario is Figure 6's workload (uniform terrain, the paper's
//! speed band, ~10 % queries) served *warm*: unlike the per-figure I/O
//! protocol, buffers are **not** cleared between operations. Stores
//! keep their in-memory backend, so the wall-clock columns are CPU
//! cost; the gated columns are page counts, deterministic per seed.
//!
//! * [`run_batch_sweep`] re-chunks one seeded update stream into client
//!   batches of each size; `ios_per_op` is the page I/O the grouped
//!   write path spends per op.
//! * [`run_read_heavy`] races reader threads against writer group
//!   commits; `reads_per_query` is the frozen pages a snapshot query
//!   visits, from a serial probe of the warm tree.
//!
//! Sharding is by speed band ([`mobidx_serve::SpeedBandShard`]): each
//! shard's dual-B+ instance is configured with its narrow geometric
//! sub-band, which collapses the §3.5.2 query enlargement (quadratic in
//! the band's spread) and with it the pages a query reads.

use crate::stack::{step_batch, warm_speed_band_stack};
use crate::{QueryMix, Scale};
use mobidx_core::method::dual_bplus::DualBPlusIndex;
use mobidx_core::QueryRequest;
use mobidx_obs::json::{chrome_trace, Value};
use mobidx_serve::{Batch, ShardedDb};
use mobidx_workload::{MorQuery1D, Simulator1D};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing of one serving-tier run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Number of mobile objects.
    pub n: usize,
    /// Warm-up instants (updates applied, nothing measured).
    pub warm_instants: usize,
    /// Instants of measured batched updates.
    pub measure_instants: usize,
    /// Queries each reader of the read-heavy sweep replays.
    pub reader_queries: usize,
    /// Per-worker queue bound.
    pub queue_depth: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ThroughputConfig {
    /// Derives a run from a figure [`Scale`]: the sweep's largest N and
    /// a quarter of its instants as measured update load.
    #[must_use]
    pub fn from_scale(scale: &Scale, seed: u64) -> Self {
        Self {
            n: *scale.n_values().last().expect("nonempty sweep"),
            warm_instants: 5,
            measure_instants: (scale.instants / 4).max(1),
            reader_queries: 200,
            queue_depth: 64,
            seed,
        }
    }
}

/// One cell of the batched-update sweep: the serving stack's write path
/// at one client batch size, fixed shard count.
#[derive(Debug, Clone)]
pub struct BatchCell {
    /// Ops per client [`Batch`] submitted to [`ShardedDb::apply`].
    pub batch: usize,
    /// Update ops applied in the measured phase.
    pub update_ops: usize,
    /// Update ops per second (wall clock, CPU cost).
    pub update_ops_per_sec: f64,
    /// Counted page I/Os (reads + writes) per applied op — deterministic:
    /// the workload, routing and grouped apply are all seeded.
    pub ios_per_op: f64,
    /// Mean worker-side drained group size across shards (from the
    /// per-shard `drained_batch_size` histograms), weighted by count.
    /// The histograms span the shard's lifetime, so the initial load and
    /// warm-up applies are included — `drained_max` in particular is
    /// usually the load batch's per-shard slice.
    pub drained_mean: f64,
    /// Largest drained group observed on any shard.
    pub drained_max: u64,
}

/// Runs the batched-update sweep: a fixed 4-shard serving stack, the
/// same seeded update stream re-chunked into client batches of each
/// requested size. Batch size 1 is the per-op baseline; larger batches
/// exercise the worker's group-commit drain and the sorted
/// `batch_update` path.
///
/// Amortization has a knee: per-op I/O only collapses once a shard's
/// slice of the batch puts several net ops on each touched leaf (with
/// the paper's 341-entry leaves that takes batches in the hundreds).
/// Below the knee, grouped and per-op applies cost about the same —
/// warm buffers already absorb the shared root-to-branch path — so
/// small-batch cells mostly pin the baseline the regression gate
/// compares against.
///
/// # Panics
/// Panics on a serve error — the benchmark runs no fault injection, so
/// any error is a harness bug.
#[must_use]
pub fn run_batch_sweep(cfg: &ThroughputConfig, batch_sizes: &[usize]) -> Vec<BatchCell> {
    const SHARDS: usize = 4;
    let mut out = Vec::new();
    for &batch in batch_sizes {
        let batch = batch.max(1);
        // Same seed per cell: every batch size replays the identical
        // update stream, so ios_per_op differences are the write path's.
        let (db, mut sim) = warm_speed_band_stack(cfg, SHARDS);

        // The measured stream: measure_instants' worth of updates,
        // re-chunked into client batches of exactly `batch` ops (the
        // trailing remainder is dropped so every apply is full-size).
        let mut stream = Vec::new();
        for _ in 0..cfg.measure_instants {
            stream.extend(sim.step());
        }
        let update_ops = (stream.len() / batch) * batch;

        db.reset_io().expect("reset I/O counters");
        let start = Instant::now();
        for chunk in stream[..update_ops].chunks(batch) {
            let mut b = Batch::new();
            for u in chunk {
                b.update(u.new);
            }
            db.apply(&b).expect("measured batched updates");
        }
        let secs = start.elapsed().as_secs_f64();
        let totals = db.io_totals().expect("I/O totals");

        let mut drained_count = 0u64;
        let mut drained_sum = 0.0f64;
        let mut drained_max = 0u64;
        for s in 0..SHARDS {
            let h = db.shard_health(s).drained_batch_size.snapshot();
            #[allow(clippy::cast_precision_loss)]
            {
                drained_sum += h.mean * h.count as f64;
            }
            drained_count += h.count;
            drained_max = drained_max.max(h.max);
        }

        #[allow(clippy::cast_precision_loss)]
        out.push(BatchCell {
            batch,
            update_ops,
            update_ops_per_sec: update_ops as f64 / secs.max(1e-9),
            ios_per_op: (totals.reads + totals.writes) as f64 / update_ops.max(1) as f64,
            drained_mean: if drained_count == 0 {
                0.0
            } else {
                drained_sum / drained_count as f64
            },
            drained_max,
        });
    }
    out
}

/// One cell of the read-heavy sweep: concurrent snapshot readers racing
/// writer group commits at one reader:writer thread ratio, fixed shard
/// count.
#[derive(Debug, Clone)]
pub struct ReadHeavyCell {
    /// Concurrent reader threads.
    pub readers: usize,
    /// Concurrent writer threads (each applying group commits in a loop
    /// for the whole read phase).
    pub writers: usize,
    /// Snapshot queries timed (summed over readers).
    pub queries: usize,
    /// Queries/sec of the snapshot path (epoch-stamped reads, zero
    /// queueing) under concurrent commits.
    pub snapshot_queries_per_sec: f64,
    /// Frozen pages visited per snapshot query, from a serial spanned
    /// probe run against the warm pre-race snapshot (deterministic: the
    /// load and warm-up history is seeded and single-threaded, so the
    /// frozen page layout is bit-identical across runs).
    pub reads_per_query: f64,
    /// Commit epochs published while the snapshot read phase ran —
    /// evidence the readers really raced live publication.
    pub epochs_advanced: u64,
}

/// Queries every snapshot probe samples for `reads_per_query`.
const READ_PROBE: usize = 32;

/// Runs the read-heavy sweep: a fixed-shard serving stack, reader
/// threads replaying a seeded query set while writer threads
/// continuously apply group commits, once per `(readers, writers)`
/// ratio.
///
/// The `reads_per_query` probe runs *before* the race, against the
/// warm snapshot whose page layout is fully determined by the seeded
/// single-threaded load — tree layout is history-dependent, so a
/// post-race probe would not be deterministic.
///
/// # Panics
/// Panics on a serve error — the benchmark runs no fault injection, so
/// any error is a harness bug.
#[must_use]
pub fn run_read_heavy(
    cfg: &ThroughputConfig,
    shards: usize,
    ratios: &[(usize, usize)],
) -> Vec<ReadHeavyCell> {
    let mut out = Vec::new();
    for &(readers, writers) in ratios {
        let readers = readers.max(1);
        let writers = writers.max(1);
        let (db, mut sim) = warm_speed_band_stack(cfg, shards);

        let (yqmax, tw) = QueryMix::Large.params();
        let per_reader = cfg.reader_queries.max(1);
        let queries: Vec<MorQuery1D> = (0..per_reader).map(|_| sim.gen_query(yqmax, tw)).collect();
        let commits: Vec<Batch> = (0..cfg.measure_instants.max(1))
            .map(|_| step_batch(&mut sim))
            .collect();

        // Serial spanned probe over the warm pre-race snapshot: frozen
        // pages per query, deterministic because the seeded load/warm
        // history (and so the frozen page layout) is.
        let probe = &queries[..READ_PROBE.min(queries.len())];
        let mut probe_reads = 0u64;
        for q in probe {
            let out = db
                .query(&QueryRequest::new(q).spanned(Instant::now()))
                .expect("snapshot probe");
            let span = out.span.expect("spanned request yields a span");
            probe_reads += span.total_io().reads;
        }

        let epoch_before = db.snapshot_epoch();
        let (snap_secs, _) = race_readers(&db, &queries, readers, writers, &commits);
        let epochs_advanced = db.snapshot_epoch() - epoch_before;

        let total_queries = per_reader * readers;
        #[allow(clippy::cast_precision_loss)]
        let snapshot_qps = total_queries as f64 / snap_secs.max(1e-9);
        #[allow(clippy::cast_precision_loss)]
        out.push(ReadHeavyCell {
            readers,
            writers,
            queries: total_queries,
            snapshot_queries_per_sec: snapshot_qps,
            reads_per_query: probe_reads as f64 / probe.len().max(1) as f64,
            epochs_advanced,
        });
    }
    out
}

/// One read-heavy race phase: `readers` threads each replay the full
/// query list while `writers` threads
/// apply the commit batches cyclically until the readers finish.
/// Returns (elapsed seconds over the read phase, summed result
/// cardinalities).
fn race_readers(
    db: &ShardedDb<DualBPlusIndex>,
    queries: &[MorQuery1D],
    readers: usize,
    writers: usize,
    commits: &[Batch],
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut elapsed = 0.0f64;
    let total: u64 = std::thread::scope(|scope| {
        let mut write_handles = Vec::with_capacity(writers);
        for w in 0..writers {
            let stop = &stop;
            write_handles.push(scope.spawn(move || {
                // Stagger starting offsets so writers don't apply the
                // same batch in lockstep.
                let mut i = (w * commits.len()) / writers.max(1);
                while !stop.load(Ordering::Relaxed) {
                    db.apply(&commits[i % commits.len()]).expect("race commit");
                    i += 1;
                }
            }));
        }
        let read_handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(move || {
                    let mut sum = 0u64;
                    for q in queries {
                        let out = db.query(&QueryRequest::new(q)).expect("race query");
                        sum += out.len() as u64;
                    }
                    sum
                })
            })
            .collect();
        let total = read_handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .sum();
        elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for h in write_handles {
            h.join().expect("writer");
        }
        total
    });
    (elapsed, total)
}

/// Renders the sweeps as a `BENCH_serve_<scale>.json` document. A
/// non-empty `batch_cells` (from [`run_batch_sweep`]) is emitted as a
/// `batch_cells` array, each cell carrying its `amortization_vs_1` —
/// per-op I/O relative to the batch = 1 cell. A non-empty `read_cells`
/// (from [`run_read_heavy`]) likewise lands as a `read_cells` array.
#[must_use]
pub fn render_report(
    scale_name: &str,
    cfg: &ThroughputConfig,
    batch_cells: &[BatchCell],
    read_cells: &[ReadHeavyCell],
) -> String {
    let base_iop = batch_cells
        .iter()
        .find(|c| c.batch == 1)
        .map_or(0.0, |c| c.ios_per_op);
    let ratio = |num: f64, den: f64| Value::Num(if den > 0.0 { num / den } else { 0.0 });
    let mut members = vec![
        (
            "paper".to_owned(),
            Value::from("On Indexing Mobile Objects (Kollios, Gunopulos, Tsotras; PODS 1999)"),
        ),
        ("benchmark".to_owned(), Value::from("serve-throughput")),
        ("scale".to_owned(), Value::from(scale_name)),
        ("n".to_owned(), Value::from(cfg.n)),
        ("seed".to_owned(), Value::from(cfg.seed)),
        ("shard_fn".to_owned(), Value::from("speed-band")),
        ("queue_depth".to_owned(), Value::from(cfg.queue_depth)),
    ];
    if !batch_cells.is_empty() {
        members.push((
            "batch_cells".to_owned(),
            Value::Arr(
                batch_cells
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("batch".to_owned(), Value::from(c.batch)),
                            ("update_ops".to_owned(), Value::from(c.update_ops)),
                            (
                                "update_ops_per_sec".to_owned(),
                                Value::Num(c.update_ops_per_sec),
                            ),
                            ("ios_per_op".to_owned(), Value::Num(c.ios_per_op)),
                            ("drained_mean".to_owned(), Value::Num(c.drained_mean)),
                            ("drained_max".to_owned(), Value::from(c.drained_max)),
                            (
                                "amortization_vs_1".to_owned(),
                                ratio(c.ios_per_op, base_iop),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !read_cells.is_empty() {
        members.push((
            "read_cells".to_owned(),
            Value::Arr(
                read_cells
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("readers".to_owned(), Value::from(c.readers)),
                            ("writers".to_owned(), Value::from(c.writers)),
                            ("queries".to_owned(), Value::from(c.queries)),
                            (
                                "snapshot_queries_per_sec".to_owned(),
                                Value::Num(c.snapshot_queries_per_sec),
                            ),
                            ("reads_per_query".to_owned(), Value::Num(c.reads_per_query)),
                            ("epochs_advanced".to_owned(), Value::from(c.epochs_advanced)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Value::Obj(members).render_pretty()
}

/// Runs a short traced-query session at `shards` shards and renders the
/// resulting span trees as a Chrome trace-event document (load it in
/// Perfetto or `chrome://tracing`): one lane per shard's read leg, with
/// the snapshot epoch, candidates and frozen pages on the span
/// attributes.
///
/// # Panics
/// Panics on a serve error — trace capture runs no fault injection, so
/// any error is a harness bug.
#[must_use]
pub fn capture_trace(cfg: &ThroughputConfig, shards: usize, queries: usize) -> String {
    let (db, mut sim) = warm_speed_band_stack(cfg, shards);
    let (yqmax, tw) = QueryMix::Large.params();
    for _ in 0..queries.max(1) {
        let q = sim.gen_query(yqmax, tw);
        db.query(&QueryRequest::new(&q).traced())
            .expect("traced query");
    }
    let spans = db.recent_spans();
    chrome_trace(spans.iter().map(Arc::as_ref)).render_pretty()
}

/// Runs a short serving session with the continuous-telemetry sampler
/// attached and renders the full JSON telemetry report
/// (`kind: "mobidx-telemetry"`; schema in EXPERIMENTS.md).
///
/// The report's `overhead` object is the evidence behind the <2 %
/// sampler budget, measured drift-robustly: the load runs as many
/// *interleaved pairs* of bare/sampled slices (order alternating per
/// pair), each pair's slices landing within ~100 ms of each other, and
/// `overhead_pct` is the **median** of the per-pair throughput ratios.
/// Pairing adjacent slices differences out the multi-percent wall-clock
/// drift a shared host shows across whole runs, which would otherwise
/// swamp a sub-percent sampler cost; the median discards the slices a
/// noisy neighbor stomped on.
///
/// # Panics
/// Panics on a serve error (no fault injection here) or if the sampler
/// fails to complete a tick within its generous deadline.
#[must_use]
pub fn capture_telemetry(cfg: &ThroughputConfig, shards: usize, tick: Duration) -> String {
    let (mut db, mut sim) = warm_speed_band_stack(cfg, shards);

    // Untimed warm phase: the first queries ever submitted pay one-time
    // costs (pool growth, allocator warmup) that would otherwise bias
    // the first measured slices.
    const PAIRS: usize = 12;
    let slice = (cfg.measure_instants / 4).max(40);
    let _ = drive_phase(&mut db, &mut sim, slice);

    // Interleaved paired slices (see the function docs). A sampled
    // slice runs under a short-lived sampler at the requested tick;
    // spawn/join is microseconds against a ~100 ms slice.
    let mut bare_rates = Vec::with_capacity(PAIRS);
    let mut sampled_rates = Vec::with_capacity(PAIRS);
    let mut pair_overheads = Vec::with_capacity(PAIRS);
    let sampler_cfg = mobidx_serve::SamplerConfig {
        tick,
        capacity: 4096,
    };
    for pair in 0..PAIRS {
        // Alternate order within pairs so linear drift cancels.
        let (bare, sampled) = if pair % 2 == 0 {
            let b = drive_phase(&mut db, &mut sim, slice);
            let s = db.start_sampler(sampler_cfg);
            let v = drive_phase(&mut db, &mut sim, slice);
            drop(s);
            (b, v)
        } else {
            let s = db.start_sampler(sampler_cfg);
            let v = drive_phase(&mut db, &mut sim, slice);
            drop(s);
            let b = drive_phase(&mut db, &mut sim, slice);
            (b, v)
        };
        bare_rates.push(bare);
        sampled_rates.push(sampled);
        pair_overheads.push(100.0 * (1.0 - sampled / bare.max(1e-9)));
    }
    let overhead_pct = median(&mut pair_overheads);

    // The shipped report comes from one final sampled session, with
    // every shard guaranteed harvested at least twice.
    let sampler = db.start_sampler(sampler_cfg);
    let _ = drive_phase(&mut db, &mut sim, slice);
    assert!(
        sampler.wait_for_ticks(sampler.ticks() + 2, Duration::from_secs(30)),
        "sampler stalled"
    );
    let Value::Obj(mut members) = sampler.report_json() else {
        unreachable!("report_json always renders an object");
    };
    members.push((
        "overhead".to_owned(),
        Value::Obj(vec![
            (
                "tick_ms".to_owned(),
                Value::from(u64::try_from(tick.as_millis()).unwrap_or(u64::MAX)),
            ),
            ("pairs".to_owned(), Value::from(PAIRS)),
            (
                "update_ops_per_sec_bare".to_owned(),
                Value::Num(mean(&bare_rates)),
            ),
            (
                "update_ops_per_sec_sampled".to_owned(),
                Value::Num(mean(&sampled_rates)),
            ),
            ("overhead_pct".to_owned(), Value::Num(overhead_pct)),
        ]),
    ));
    Value::Obj(members).render_pretty()
}

/// Arithmetic mean (0.0 on empty input).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    xs.iter().sum::<f64>() / n
}

/// Median (0.0 on empty input); sorts in place.
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// One measured load phase of [`capture_telemetry`]: `instants` update
/// instants plus a slice of large-mix queries (some traced, so the
/// span-accounting series move too). Returns update ops/sec.
fn drive_phase(db: &mut ShardedDb<DualBPlusIndex>, sim: &mut Simulator1D, instants: usize) -> f64 {
    let (yqmax, tw) = QueryMix::Large.params();
    let mut ops = 0usize;
    let started = Instant::now();
    for instant in 0..instants.max(1) {
        let batch = step_batch(sim);
        ops += batch.len();
        db.apply(&batch).expect("update batch");
        for q_no in 0..8 {
            let q = sim.gen_query(yqmax, tw);
            if (instant + q_no) % 4 == 0 {
                db.query(&QueryRequest::new(&q).traced())
                    .expect("traced query");
            } else {
                db.query(&QueryRequest::new(&q)).expect("query");
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let ops_per_sec = ops as f64 / started.elapsed().as_secs_f64().max(1e-9);
    ops_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_capture_renders_chrome_events() {
        let cfg = ThroughputConfig {
            n: 2000,
            warm_instants: 1,
            measure_instants: 1,
            reader_queries: 2,
            queue_depth: 8,
            seed: 0xBEEF,
        };
        let text = capture_trace(&cfg, 2, 3);
        let doc = Value::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        // 3 lane-name metadata events (client + 2 read legs) plus at
        // least root/leg/index spans per query.
        assert!(events.len() > 3, "only {} events", events.len());
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("query")));
    }

    #[test]
    fn telemetry_capture_reports_every_shard_and_overhead() {
        let cfg = ThroughputConfig {
            n: 2000,
            warm_instants: 1,
            measure_instants: 2,
            reader_queries: 2,
            queue_depth: 8,
            seed: 0xBEEF,
        };
        const SHARDS: u64 = 2;
        let text = capture_telemetry(&cfg, SHARDS as usize, Duration::from_millis(5));
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("kind").and_then(Value::as_str),
            Some("mobidx-telemetry")
        );
        assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(SHARDS));
        let series = doc
            .get("telemetry")
            .and_then(|t| t.get("series"))
            .and_then(Value::as_array)
            .expect("series");
        for shard in 0..SHARDS {
            let name = format!("queue_depth{{shard=\"{shard}\"}}");
            let s = series
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(name.as_str()))
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(s.get("recorded").and_then(Value::as_u64) >= Some(1));
        }
        let overhead = doc.get("overhead").expect("overhead object");
        assert!(overhead
            .get("update_ops_per_sec_bare")
            .and_then(Value::as_f64)
            .is_some_and(|v| v > 0.0));
        assert!(overhead
            .get("overhead_pct")
            .and_then(Value::as_f64)
            .is_some());
    }

    #[test]
    fn report_parses() {
        let cfg = ThroughputConfig::from_scale(&Scale::smoke(), 7);
        let batch_cells = vec![
            BatchCell {
                batch: 1,
                update_ops: 600,
                update_ops_per_sec: 900.0,
                ios_per_op: 6.0,
                drained_mean: 1.0,
                drained_max: 1,
            },
            BatchCell {
                batch: 32,
                update_ops: 576,
                update_ops_per_sec: 2400.0,
                ios_per_op: 1.5,
                drained_mean: 7.5,
                drained_max: 9,
            },
        ];
        let read_cells = vec![ReadHeavyCell {
            readers: 8,
            writers: 2,
            queries: 1600,
            snapshot_queries_per_sec: 3000.0,
            reads_per_query: 34.0,
            epochs_advanced: 12,
        }];
        let text = render_report("smoke", &cfg, &batch_cells, &read_cells);
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("benchmark").and_then(Value::as_str),
            Some("serve-throughput")
        );
        let bc = doc
            .get("batch_cells")
            .and_then(Value::as_array)
            .expect("batch_cells");
        assert_eq!(bc.len(), 2);
        assert_eq!(bc[1].get("batch").and_then(Value::as_u64), Some(32));
        let amort = bc[1]
            .get("amortization_vs_1")
            .and_then(Value::as_f64)
            .expect("amortization");
        assert!((amort - 0.25).abs() < 1e-12);
        let rc = doc
            .get("read_cells")
            .and_then(Value::as_array)
            .expect("read_cells");
        assert_eq!(rc.len(), 1);
        assert_eq!(rc[0].get("readers").and_then(Value::as_u64), Some(8));
        assert_eq!(rc[0].get("writers").and_then(Value::as_u64), Some(2));
        let qps = rc[0]
            .get("snapshot_queries_per_sec")
            .and_then(Value::as_f64)
            .expect("snapshot_queries_per_sec");
        assert!((qps - 3000.0).abs() < 1e-12);
    }

    #[test]
    fn report_without_batch_sweep_omits_batch_cells() {
        let cfg = ThroughputConfig::from_scale(&Scale::smoke(), 7);
        let text = render_report("smoke", &cfg, &[], &[]);
        let doc = Value::parse(&text).expect("valid JSON");
        assert!(doc.get("batch_cells").is_none());
        assert!(doc.get("read_cells").is_none());
    }

    #[test]
    fn read_heavy_races_snapshot_reads_against_commits() {
        let cfg = ThroughputConfig {
            n: 5000,
            warm_instants: 2,
            measure_instants: 3,
            reader_queries: 20,
            queue_depth: 64,
            seed: 0xBEEF,
        };
        let cells = run_read_heavy(&cfg, 2, &[(2, 1)]);
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!((c.readers, c.writers), (2, 1));
        assert_eq!(c.queries, 40, "2 readers x 20 queries");
        assert!(c.snapshot_queries_per_sec > 0.0);
        assert!(
            c.reads_per_query > 0.0,
            "snapshot probe must visit frozen pages"
        );
        assert!(
            c.epochs_advanced >= 1,
            "the writer must publish at least one epoch during the read phase"
        );
    }

    #[test]
    fn batch_sweep_amortizes_io() {
        let cfg = ThroughputConfig {
            n: 5000,
            warm_instants: 2,
            measure_instants: 3,
            reader_queries: 0,
            queue_depth: 64,
            seed: 0xBEEF,
        };
        let cells = run_batch_sweep(&cfg, &[1, 128]);
        assert_eq!(cells.len(), 2);
        let single = &cells[0];
        let grouped = &cells[1];
        assert_eq!(single.batch, 1);
        assert_eq!(grouped.batch, 128);
        assert!(single.update_ops > 0 && grouped.update_ops > 0);
        assert!(single.ios_per_op > 0.0, "the pager must count I/O");
        // Amortization needs several ops per touched leaf: at batch = 128
        // each shard's slice (~32 net ops) covers its 341-entry leaves
        // several times over and per-op I/O collapses. Small batches sit
        // below that knee (see run_batch_sweep's doc) and are only
        // gated for regressions via the report, not asserted here.
        assert!(
            grouped.ios_per_op < single.ios_per_op / 2.0,
            "grouped apply must amortize I/O: batch=128 {} vs batch=1 {}",
            grouped.ios_per_op,
            single.ios_per_op
        );
        assert!(grouped.drained_max >= 1);
        assert!(grouped.drained_mean >= 1.0);
    }
}
