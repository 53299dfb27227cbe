//! Per-shard health instrumentation.
//!
//! Each shard worker shares one [`ShardHealth`] with the facade: the
//! facade updates the queue gauges on enqueue and the query counters
//! around every snapshot leg, the worker updates the queue gauges on
//! dequeue and the apply counters around every batch. All fields are
//! relaxed atomics ([`Counter`] / [`Gauge`] / [`Histogram`]), so
//! [`crate::ShardedDb::health`] reads a snapshot
//! without a queue round-trip — which is the point: a wedged or poisoned
//! worker can't block its own diagnosis.

use mobidx_obs::json::Value;
use mobidx_obs::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Live health state of one shard (see the module docs for who updates
/// what).
#[derive(Debug, Default)]
pub struct ShardHealth {
    /// Requests currently queued plus senders currently blocked on the
    /// full queue — the congestion signal. Incremented by the facade
    /// *before* the (possibly blocking) send, decremented by the worker
    /// at dequeue.
    pub queue_depth: Gauge,
    /// High-water mark of `queue_depth` since startup.
    pub queue_high_water: Gauge,
    /// Requests successfully enqueued.
    pub enqueued: Counter,
    /// Requests dequeued by the worker.
    pub dequeued: Counter,
    /// Write batches applied (one per `Apply` request).
    pub applied_batches: Counter,
    /// Read views this worker froze or refroze: in line, at the end of
    /// an `Apply` that followed a snapshot read, or on a `Freeze`
    /// request from a read that found none published. Standing still
    /// under write traffic means nobody reads snapshots.
    pub views_built: Counter,
    /// Views this worker retired itself, as the last owner, at the start
    /// of a later request — freed, or recycled into the next view by a
    /// refreeze (see `worker::run`). It trails `views_built` by at most
    /// the two views a worker keeps; a wider gap counts views that a
    /// lingering reader (a held `ReadView`) freed instead.
    pub views_retired: Counter,
    /// Individual shard ops applied across all batches.
    pub applied_ops: Counter,
    /// Query legs answered for this shard: one per read, run against the
    /// shard's frozen view on the caller or a read-pool thread, never on
    /// the worker. Always matches `query_latency`'s sample count.
    pub queries: Counter,
    /// Ops per group commit: each `Apply` the worker dequeues drains
    /// every `Apply` queued behind it and applies their ops as one
    /// sorted batch; this histogram records the resulting group sizes
    /// (in ops). A mean well above the per-request op count means the
    /// shard is amortizing update I/O across requests.
    pub drained_batch_size: Histogram,
    /// 1 while the shard is poisoned (awaiting a rebuild), else 0.
    pub poisoned: Gauge,
    /// Per-leg wall-clock of a snapshot read, in microseconds.
    pub query_latency: Histogram,
    /// Per-batch apply wall-clock on the worker, in microseconds.
    pub update_latency: Histogram,
}

impl ShardHealth {
    /// Creates zeroed health state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a point-in-time summary.
    #[must_use]
    pub fn snapshot(&self, shard: usize) -> ShardHealthSnapshot {
        ShardHealthSnapshot {
            shard,
            queue_depth: self.queue_depth.get(),
            queue_high_water: self.queue_high_water.get(),
            enqueued: self.enqueued.get(),
            dequeued: self.dequeued.get(),
            applied_batches: self.applied_batches.get(),
            views_built: self.views_built.get(),
            views_retired: self.views_retired.get(),
            applied_ops: self.applied_ops.get(),
            queries: self.queries.get(),
            drained_batch_size: self.drained_batch_size.snapshot(),
            poisoned: self.poisoned.get() != 0,
            query_latency_us: self.query_latency.snapshot(),
            update_latency_us: self.update_latency.snapshot(),
        }
    }
}

/// A point-in-time summary of one shard's [`ShardHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealthSnapshot {
    /// Shard number.
    pub shard: usize,
    /// Queued + blocked-sender requests at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth`.
    pub queue_high_water: u64,
    /// Requests successfully enqueued.
    pub enqueued: u64,
    /// Requests dequeued by the worker.
    pub dequeued: u64,
    /// Write batches applied.
    pub applied_batches: u64,
    /// Read views the worker froze or refroze (see
    /// [`ShardHealth::views_built`]).
    pub views_built: u64,
    /// Views the worker itself retired (see
    /// [`ShardHealth::views_retired`]).
    pub views_retired: u64,
    /// Individual shard ops applied.
    pub applied_ops: u64,
    /// Queries answered.
    pub queries: u64,
    /// Ops per group commit (see [`ShardHealth::drained_batch_size`]).
    pub drained_batch_size: HistogramSnapshot,
    /// Whether the shard awaits a rebuild.
    pub poisoned: bool,
    /// Per-query worker latency percentiles (µs).
    pub query_latency_us: HistogramSnapshot,
    /// Per-batch apply latency percentiles (µs).
    pub update_latency_us: HistogramSnapshot,
}

impl ShardHealthSnapshot {
    /// The snapshot as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("shard".to_owned(), Value::from(self.shard)),
            ("queue_depth".to_owned(), Value::from(self.queue_depth)),
            (
                "queue_high_water".to_owned(),
                Value::from(self.queue_high_water),
            ),
            ("enqueued".to_owned(), Value::from(self.enqueued)),
            ("dequeued".to_owned(), Value::from(self.dequeued)),
            (
                "applied_batches".to_owned(),
                Value::from(self.applied_batches),
            ),
            ("views_built".to_owned(), Value::from(self.views_built)),
            ("views_retired".to_owned(), Value::from(self.views_retired)),
            ("applied_ops".to_owned(), Value::from(self.applied_ops)),
            ("queries".to_owned(), Value::from(self.queries)),
            (
                "drained_batch_size".to_owned(),
                histogram_json(&self.drained_batch_size),
            ),
            ("poisoned".to_owned(), Value::Bool(self.poisoned)),
            (
                "query_latency_us".to_owned(),
                histogram_json(&self.query_latency_us),
            ),
            (
                "update_latency_us".to_owned(),
                histogram_json(&self.update_latency_us),
            ),
        ])
    }
}

/// A point-in-time summary of the snapshot read pool (see
/// `crate::snapshot`): how the fan-out legs were executed and how deep
/// the shared job queue ran. The queue is pool-wide (there are no
/// per-worker queues), so `depth` is the backlog every worker pulls
/// from, while `executed` breaks the served legs down per helper
/// thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPoolSnapshot {
    /// Helper threads in the pool.
    pub threads: usize,
    /// Fan-out legs ever enqueued.
    pub submitted: u64,
    /// Legs executed by submitting threads via work stealing (never by
    /// a helper).
    pub stolen: u64,
    /// Legs executed by each helper thread, in worker order.
    pub executed: Vec<u64>,
    /// Legs queued at snapshot time.
    pub depth: u64,
    /// High-water mark of `depth` since startup.
    pub depth_high_water: u64,
}

impl ReadPoolSnapshot {
    /// Legs executed across helpers and stealers combined.
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.stolen + self.executed.iter().sum::<u64>()
    }

    /// The snapshot as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("threads".to_owned(), Value::from(self.threads)),
            ("submitted".to_owned(), Value::from(self.submitted)),
            ("stolen".to_owned(), Value::from(self.stolen)),
            (
                "executed".to_owned(),
                Value::Arr(self.executed.iter().map(|&e| Value::from(e)).collect()),
            ),
            (
                "executed_total".to_owned(),
                Value::from(self.executed_total()),
            ),
            ("depth".to_owned(), Value::from(self.depth)),
            (
                "depth_high_water".to_owned(),
                Value::from(self.depth_high_water),
            ),
        ])
    }
}

/// A point-in-time summary of every shard's health.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardHealthSnapshot>,
    /// The snapshot read pool's counters (see [`ReadPoolSnapshot`]).
    pub read_pool: ReadPoolSnapshot,
    /// Snapshots built by `Freeze` round trips to the shards, for a
    /// read that found none published — each is a read that waited.
    pub snapshots_on_demand: u64,
    /// Applies that published no snapshot because nobody had read
    /// since the one before: the write-only share of the traffic.
    pub applies_unpublished: u64,
    /// Span trees ever pushed into the facade's event log.
    pub spans_recorded: u64,
    /// Span trees silently overwritten by the event log's ring wrap —
    /// nonzero means diagnosis is working from an incomplete recent
    /// history.
    pub spans_dropped: u64,
}

impl HealthSnapshot {
    /// `true` if any shard awaits a rebuild.
    #[must_use]
    pub fn any_poisoned(&self) -> bool {
        self.shards.iter().any(|s| s.poisoned)
    }

    /// The snapshot as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "shards".to_owned(),
                Value::Arr(
                    self.shards
                        .iter()
                        .map(ShardHealthSnapshot::to_json)
                        .collect(),
                ),
            ),
            ("read_pool".to_owned(), self.read_pool.to_json()),
            (
                "snapshots_on_demand".to_owned(),
                Value::from(self.snapshots_on_demand),
            ),
            (
                "applies_unpublished".to_owned(),
                Value::from(self.applies_unpublished),
            ),
            (
                "spans_recorded".to_owned(),
                Value::from(self.spans_recorded),
            ),
            ("spans_dropped".to_owned(), Value::from(self.spans_dropped)),
        ])
    }
}

/// Serializes a [`HistogramSnapshot`] with the percentile fields the
/// bench reports use.
#[must_use]
pub fn histogram_json(h: &HistogramSnapshot) -> Value {
    Value::Obj(vec![
        ("count".to_owned(), Value::from(h.count)),
        ("mean".to_owned(), Value::Num(h.mean)),
        ("min".to_owned(), Value::from(h.min)),
        ("p50".to_owned(), Value::from(h.p50)),
        ("p90".to_owned(), Value::from(h.p90)),
        ("p95".to_owned(), Value::from(h.p95)),
        ("p99".to_owned(), Value::from(h.p99)),
        ("max".to_owned(), Value::from(h.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let h = ShardHealth::new();
        h.enqueued.add(5);
        h.dequeued.add(5);
        let d = h.queue_depth.incr();
        h.queue_high_water.set_max(d);
        h.queries.add(3);
        h.query_latency.record(120);
        h.drained_batch_size.record(64);
        h.poisoned.set(1);
        let s = h.snapshot(2);
        assert_eq!(s.shard, 2);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_high_water, 1);
        assert_eq!(s.enqueued, 5);
        assert_eq!(s.queries, 3);
        assert_eq!(s.drained_batch_size.count, 1);
        assert_eq!(s.drained_batch_size.max, 64);
        assert!(s.poisoned);
        assert_eq!(s.query_latency_us.count, 1);
        assert_eq!(s.query_latency_us.max, 120);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let h = ShardHealth::new();
        h.update_latency.record(50);
        let snap = HealthSnapshot {
            shards: vec![h.snapshot(0)],
            read_pool: ReadPoolSnapshot {
                threads: 2,
                submitted: 9,
                stolen: 3,
                executed: vec![4, 2],
                depth: 0,
                depth_high_water: 5,
            },
            snapshots_on_demand: 2,
            applies_unpublished: 17,
            spans_recorded: 300,
            spans_dropped: 44,
        };
        let parsed = Value::parse(&snap.to_json().render()).expect("valid JSON");
        assert_eq!(
            parsed.get("spans_recorded").and_then(Value::as_u64),
            Some(300)
        );
        assert_eq!(
            parsed.get("spans_dropped").and_then(Value::as_u64),
            Some(44)
        );
        assert_eq!(
            parsed.get("snapshots_on_demand").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed.get("applies_unpublished").and_then(Value::as_u64),
            Some(17)
        );
        let shard = &parsed.get("shards").and_then(Value::as_array).expect("arr")[0];
        assert_eq!(shard.get("shard").and_then(Value::as_u64), Some(0));
        assert_eq!(shard.get("poisoned").and_then(Value::as_bool), Some(false));
        assert_eq!(shard.get("queries").and_then(Value::as_u64), Some(0));
        assert_eq!(shard.get("views_built").and_then(Value::as_u64), Some(0));
        let upd = shard.get("update_latency_us").expect("histogram");
        assert_eq!(upd.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(upd.get("p95").and_then(Value::as_u64), Some(50));
        let drained = shard.get("drained_batch_size").expect("histogram");
        assert_eq!(drained.get("count").and_then(Value::as_u64), Some(0));
        let pool = parsed.get("read_pool").expect("read pool section");
        assert_eq!(pool.get("submitted").and_then(Value::as_u64), Some(9));
        assert_eq!(pool.get("stolen").and_then(Value::as_u64), Some(3));
        assert_eq!(pool.get("executed_total").and_then(Value::as_u64), Some(9));
        assert_eq!(
            pool.get("executed")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(snap.read_pool.executed_total(), 9);
        assert!(!snap.any_poisoned());
    }
}
