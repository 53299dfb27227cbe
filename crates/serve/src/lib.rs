//! `mobidx-serve`: a sharded, multi-threaded MOR serving front end over
//! any [`Index1D`](mobidx_core::Index1D).
//!
//! The paper's methods are single-threaded index structures; a tracking
//! service runs them behind a server. This crate supplies that tier:
//!
//! * **Shard ownership** — objects are partitioned across `S` index
//!   instances by a pluggable [`ShardFn`]; each instance is owned by one
//!   worker thread fed through a bounded queue (the `worker` module has
//!   the model). No locks around index internals; backpressure by blocking
//!   `send` on a full queue.
//! * **Batched writes** — [`Batch`]es of insert/update/remove are
//!   validated atomically against the facade's authoritative motion
//!   table, split into per-shard op lists, and dispatched as one message
//!   per shard ([`batch`]).
//! * **Snapshot reads** — every MOR query runs against an immutable,
//!   epoch-stamped [`DbSnapshot`] (one frozen view per shard; page-level
//!   copy-on-write: one handle bump per live page, contents copied only
//!   for pages the next batch dirties) from any caller thread, with zero
//!   queueing behind writes. Its per-shard legs fan out across a small
//!   read pool and fan back in through one union of their answers into
//!   the single-index contract: sorted, deduplicated, equal to what one
//!   index gives. An apply that follows a snapshot read has its workers
//!   freeze in line and publishes the next snapshot; an apply nobody
//!   read behind builds none and only advances the commit epoch — the
//!   first read after it has the shards freeze ([`snapshot`]). Since
//!   `apply` returns only after every shard replied, a read after it
//!   sees the caller's own write.
//! * **Fault isolation** — a worker converts an index panic (e.g. an
//!   unrecovered pager fault) into a typed [`ServeError`]; the shard is
//!   poisoned until [`ShardedDb::rebuild_shard`] re-syncs it from the
//!   motion table, and the rest of the pool keeps serving. Reads keep
//!   the last published snapshot meanwhile; one that finds none gets
//!   [`ServeError::ShardPoisoned`].
//!
//! [`SpeedBandShard`] is where sharding pays beyond concurrency: each
//! shard's index covers a narrow speed band, so the dual-B+ method's
//! query enlargement — quadratic in the band's spread — collapses, and
//! per-shard candidate scans shrink superlinearly in `S`.

pub mod batch;
pub mod db;
pub mod flight;
pub mod health;
pub mod repartition;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub(crate) mod worker;

pub use batch::{Batch, Op};
pub use db::{ReadView, ServeConfig, ShardedDb};
pub use flight::{FlightConfig, FlightRecorder};
pub use health::{HealthSnapshot, ReadPoolSnapshot, ShardHealth, ShardHealthSnapshot};
pub use mobidx_pager::FsyncPolicy;
pub use repartition::{
    start_repartitioner, RepartitionConfig, RepartitionPolicy, RepartitionReport, RepartitionStats,
    Repartitioner,
};
pub use shard::{IdHashShard, ShardFn, SpeedBandShard};
pub use snapshot::DbSnapshot;
pub use telemetry::{default_slos, SamplerConfig, ServeSampler};

use mobidx_core::{DuplicateId, UnknownId};
use std::fmt;

/// Everything that can go wrong at the serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Batch rejected: an insert's id is already tracked.
    Duplicate(DuplicateId),
    /// Batch rejected: an update/remove names an untracked id.
    Unknown(UnknownId),
    /// A worker's index panicked mid-request (e.g. an unrecovered pager
    /// fault). The shard is poisoned until
    /// [`ShardedDb::rebuild_shard`]; the rest of the pool keeps serving.
    ShardFault {
        /// The faulted shard.
        shard: usize,
        /// The panic payload.
        panic: String,
    },
    /// The shard faulted earlier and awaits a rebuild. A read gets it
    /// for the first shard with no view when no snapshot is published.
    ShardPoisoned {
        /// The poisoned shard.
        shard: usize,
    },
    /// The worker thread is gone (its queue is closed) — only possible
    /// after an external shutdown.
    ShardDown {
        /// The dead shard.
        shard: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Duplicate(e) => write!(f, "batch rejected: {e}"),
            ServeError::Unknown(e) => write!(f, "batch rejected: {e}"),
            ServeError::ShardFault { shard, panic } => {
                write!(f, "shard {shard} faulted: {panic}")
            }
            ServeError::ShardPoisoned { shard } => {
                write!(f, "shard {shard} is poisoned (rebuild required)")
            }
            ServeError::ShardDown { shard } => write!(f, "shard {shard} worker is gone"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DuplicateId> for ServeError {
    fn from(e: DuplicateId) -> Self {
        ServeError::Duplicate(e)
    }
}

impl From<UnknownId> for ServeError {
    fn from(e: UnknownId) -> Self {
        ServeError::Unknown(e)
    }
}
