//! The benchmark's fixed parts: the five workloads, their sizes, and the
//! names and units of every metric. `BENCHMARK.json` at the repository
//! root repeats the names; `tests/smoke.rs` holds the two together.

/// Nominal length of the measured phase, in seconds. Slice sizes below
/// are chosen so that about forty-five slices of a fifth of a second fit
/// into it on the reference box; the phase itself is bounded by
/// `--seconds`, not by this.
pub const RUN_SECONDS: u64 = 10;

/// A measured phase never has fewer slices than this: the quiet set needs
/// something to choose from, and the exact counts are taken over exactly
/// this many slices so that they repeat whatever the clock does.
pub const MIN_SLICES: usize = 18;

/// How many times the stack is built in one run; `setup_s` is the median.
pub const SETUP_BUILDS: usize = 3;

/// Shards of the serving tier. With one read-pool helper this keeps at
/// most two threads runnable at any instant, the core count of the
/// reference box.
pub const SHARDS: usize = 2;

/// Which program path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Snapshot reads through `ShardedDb::query`; nothing is written.
    Read,
    /// `ShardedDb::apply` only, memory backend.
    Update,
    /// One apply then a few queries, interleaved.
    Mixed,
    /// `ShardedDb::apply` on `FileBackend` + WAL, fsync on commit.
    Durable,
    /// `MotionDb` alone, buffers cleared before every query.
    Cold,
}

impl Kind {
    /// Whether the stack is a `ShardedDb` (everything but [`Kind::Cold`]).
    #[must_use]
    pub fn sharded(self) -> bool {
        self != Kind::Cold
    }

    /// Whether a step of this kind applies a batch.
    #[must_use]
    pub fn writes(self) -> bool {
        matches!(self, Kind::Update | Kind::Mixed | Kind::Durable)
    }

    /// Whether a step of this kind issues queries.
    #[must_use]
    pub fn reads(self) -> bool {
        matches!(self, Kind::Read | Kind::Mixed | Kind::Cold)
    }
}

/// `full` is what `BENCHMARK.json` runs; `smoke` exists for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's N.
    Full,
    /// N = 10 000 (the smallest N at which an observation tree outgrows
    /// its 4-page pool, so that the pager still misses), short slices.
    Smoke,
}

/// One workload, fully sized.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// The program path it drives.
    pub kind: Kind,
    /// Mobile objects.
    pub n: usize,
    /// Simulator instants applied during set-up, after the bulk load.
    pub ageing: usize,
    /// Instants folded into one set-up `apply`. 1 everywhere but on
    /// `durable_stream`, where every apply journals about every page, so
    /// the same ageing is bought with a tenth of the WAL bytes.
    pub instants_per_apply: usize,
    /// Buffer-pool pages per B+-tree.
    pub pool_pages: usize,
    /// Object updates per client `apply` (0 on read-only workloads).
    pub batch: usize,
    /// Queries per step (0 on write-only workloads).
    pub queries_per_step: usize,
    /// `(YQMAX, TW)` of the query mix.
    pub query_mix: (f64, f64),
    /// Steps per slice. Every slice of a run is this much work.
    pub steps_per_slice: usize,
    /// Upper bound on slices, whatever `--seconds` says.
    pub max_slices: usize,
}

const LARGE_MIX: (f64, f64) = (150.0, 60.0);
const SMALL_MIX: (f64, f64) = (10.0, 20.0);

const FULL: [Spec; 5] = [
    Spec {
        name: "read_large",
        why: "Large-mix snapshot reads on a static N=200k: frozen search, leaf scan, read-pool fan-out and merge do all the work; pager, WAL and write path do none.",
        kind: Kind::Read,
        n: 200_000,
        ageing: 400,
        instants_per_apply: 1,
        pool_pages: 4,
        batch: 0,
        queries_per_step: 1,
        query_mix: LARGE_MIX,
        steps_per_slice: 330,
        max_slices: 180,
    },
    Spec {
        name: "update_stream",
        why: "Client batches of 64 updates through 4-page pools (the paper's buffer): split/queue/publish, batch_update, freeze and above all the pager work; the read path does none.",
        kind: Kind::Update,
        n: 200_000,
        ageing: 400,
        instants_per_apply: 1,
        pool_pages: 4,
        batch: 64,
        queries_per_step: 0,
        query_mix: LARGE_MIX,
        steps_per_slice: 200,
        max_slices: 180,
    },
    Spec {
        name: "mixed_rw",
        why: "One apply of 64 then 4 small queries per step on 256-page pools: every query meets a snapshot one commit old, the pool hits, per-query fixed cost shows.",
        kind: Kind::Mixed,
        n: 200_000,
        ageing: 400,
        instants_per_apply: 1,
        pool_pages: 256,
        batch: 64,
        queries_per_step: 4,
        query_mix: SMALL_MIX,
        steps_per_slice: 110,
        max_slices: 180,
    },
    Spec {
        name: "durable_stream",
        why: "Batches of 16 on FileBackend with fsync on commit: the only workload where WAL framing, CRC, page journaling, commit_group and fsync run. Capped by bytes written.",
        kind: Kind::Durable,
        n: 100_000,
        ageing: 40,
        instants_per_apply: 10,
        pool_pages: 4,
        batch: 16,
        queries_per_step: 0,
        query_mix: LARGE_MIX,
        steps_per_slice: 8,
        // ~12 MB of WAL per slice. Thirty-six slices and three set-ups
        // write ~0.6 GB a run, which back-to-back runs can sustain
        // without draining the sandbox disk's burst allowance.
        max_slices: 36,
    },
    Spec {
        name: "paper_cold",
        why: "MotionDb alone, buffers cleared before each large query (the paper's protocol): the only read path through PageStore, BufferPool and Backend; serve does nothing.",
        kind: Kind::Cold,
        n: 200_000,
        ageing: 100,
        instants_per_apply: 1,
        pool_pages: 4,
        batch: 0,
        queries_per_step: 1,
        query_mix: LARGE_MIX,
        steps_per_slice: 270,
        max_slices: 180,
    },
];

/// The workload names, in the order `run.sh` runs them.
#[must_use]
pub fn workload_names() -> Vec<&'static str> {
    FULL.iter().map(|s| s.name).collect()
}

/// Looks a workload up by name at the given scale.
#[must_use]
pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let full = *FULL.iter().find(|s| s.name == name)?;
    Some(match scale {
        Scale::Full => full,
        Scale::Smoke => Spec {
            n: 10_000,
            ageing: full.ageing.min(10),
            steps_per_slice: match full.kind {
                Kind::Durable => 3,
                Kind::Mixed => 20,
                _ => 40,
            },
            batch: full.batch.min(64),
            max_slices: 3,
            ..full
        },
    })
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// Every end-to-end metric, reported by every workload with tracing off.
///
/// One *op* is one query or one object update. One *call* is what the
/// closed-loop client waits for: a query, an `apply` of one batch, or on
/// `mixed_rw` one step (the apply and the four queries that follow it).
///
/// There is no tail percentile here: `call_p95_us` was measured, its two
/// calibration medians differed by 15 % and its quartiles by up to 31 %
/// on `mixed_rw`, and a metric that unsteady cannot gate anything. It is
/// reported as `bench.call_p95_us` and in the notes of every run.
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("ios_per_op", "pages"),
    ("pages_per_kobject", "pages"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, reported by every workload with tracing on;
/// 0 where the workload does not enter the layer.
pub const PER_LAYER: [MetricDef; 60] = [
    // serve
    ("serve.query_self_us", "us"),
    ("serve.leg_us", "us"),
    ("serve.leg_union_us", "us"),
    ("serve.leg_imbalance", "ratio"),
    ("serve.merge_ids_per_query", "count"),
    ("serve.pages_per_query", "pages"),
    ("serve.readpool_steal_ratio", "ratio"),
    ("serve.apply_overhead_us", "us"),
    ("serve.drained_group_mean", "count"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.epochs_per_apply", "count"),
    // core
    ("core.frozen_search_us", "us"),
    ("core.search_cold_us", "us"),
    ("core.batch_update_us_per_update", "us"),
    ("core.freeze_us", "us"),
    ("core.commit_group_us", "us"),
    ("core.candidates_per_result", "ratio"),
    // bptree
    ("bptree.range_ns_per_entry", "ns"),
    ("bptree.frozen_range_ns_per_entry", "ns"),
    ("bptree.apply_batch_ns_per_key", "ns"),
    ("bptree.insert_ns", "ns"),
    ("bptree.remove_ns", "ns"),
    ("bptree.height", "count"),
    ("bptree.fill_pct", "%"),
    // pager
    ("pager.read_hit_ns", "ns"),
    ("pager.read_miss_ns", "ns"),
    ("pager.write_ns", "ns"),
    ("pager.freeze_ns_per_page", "ns"),
    ("pager.pool_hit_rate", "ratio"),
    ("pager.reads_per_update", "pages"),
    ("pager.writes_per_update", "pages"),
    ("pager.reads_per_cold_query", "pages"),
    ("pager.wal_records_per_update", "count"),
    ("pager.wal_bytes_per_record", "B"),
    ("pager.wal_bytes_per_update", "B"),
    ("pager.fsyncs_per_commit", "count"),
    ("pager.commit_us_per_page", "us"),
    ("pager.fsync_us", "us"),
    ("pager.recovery_s", "s"),
    ("pager.replay_records_per_ms", "1/ms"),
    // obs
    ("obs.span_overhead_pct", "%"),
    ("obs.sampler_overhead_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    // bench: the harness looking at itself and at the untraced slices
    ("bench.gen_s", "s"),
    ("bench.slices", "count"),
    ("bench.slice_spread_pct", "%"),
    ("bench.ops_per_s", "1/s"),
    ("bench.ops_per_s_all_slices", "1/s"),
    ("bench.call_p50_us", "us"),
    ("bench.call_p95_us", "us"),
    ("bench.call_p99_us", "us"),
    ("bench.query_p50_us", "us"),
    ("bench.query_p95_us", "us"),
    ("bench.query_p99_us", "us"),
    ("bench.apply_p50_us", "us"),
    ("bench.apply_p95_us", "us"),
    ("bench.apply_p99_us", "us"),
    ("bench.trace_spans", "count"),
    ("bench.traced_call_us", "us"),
    ("bench.trace_accounting_pct", "%"),
];
