//! # mobidx-pager — external-memory page management with I/O accounting
//!
//! The paper ("On Indexing Mobile Objects", PODS '99) evaluates every index
//! in the standard external-memory model of Aggarwal & Vitter: each disk
//! access transfers one page of `B` entries, and the cost of an operation is
//! the *number of page accesses* (I/Os), not wall-clock time.
//!
//! This crate reproduces that model faithfully in memory:
//!
//! * a [`PageStore`] keeps every page of a structure (the simulated disk);
//! * a small [`BufferPool`] sits in front of it (the paper buffers only the
//!   root-to-leaf path, 3–4 pages, and clears the buffer before each
//!   query — see §5 of the paper);
//! * every fetch that misses the buffer counts one **read I/O**, every
//!   eviction of a dirty page counts one **write I/O**, and page
//!   allocations/frees are tracked so that space consumption (Figure 8)
//!   can be reported in pages.
//!
//! Page *capacity* is always derived from byte sizes via [`page_capacity`],
//! reproducing the paper's arithmetic (4096-byte pages, 20-byte segment
//! entries ⇒ B = 204 for the R*-tree; 12-byte entries ⇒ B = 341 for the
//! B+-tree).

mod backend;
mod buffer;
mod codec;
mod error;
mod file;
mod scratch;
mod stats;
mod store;
pub mod wal;

pub use backend::{
    Backend, DelayBackend, Fault, FaultKind, FaultPlan, FaultStore, IoKind, JournalAck, MemBackend,
    RetryPolicy,
};
pub use buffer::{BufferPool, INDEXED_THRESHOLD};
pub use codec::{crc32, put_bytes, put_u32, put_u64, ByteReader, FixedCodec, PageCodec};
pub use error::PagerError;
pub use file::{DurableFaultStore, FileBackend, FsyncPolicy, RecoveredImage, PAGE_FILE, WAL_FILE};
pub use scratch::ScratchDir;
pub use stats::{IoSnapshot, IoStats};
pub use store::{FrozenPages, PageId, PageStore, Store};

/// Default logical page size used throughout the reproduction, in bytes.
///
/// Matches §5 of the paper: "We fixed the page size to 4096 bytes."
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Default buffer-pool capacity, in pages.
///
/// The paper (§5): "we buffer the path from the root to a leaf node, thus
/// the buffer size is only 3 or 4 pages."
pub const DEFAULT_BUFFER_PAGES: usize = 4;

/// Number of entries of `entry_bytes` bytes that fit in a page of
/// `page_size` bytes.
///
/// This is the paper's definition of the page capacity `B`. For example,
/// with the paper's numbers:
///
/// ```
/// use mobidx_pager::{page_capacity, DEFAULT_PAGE_SIZE};
/// // R*-tree line-segment entry: four 4-byte coordinates + 4-byte pointer.
/// assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 20), 204);
/// // B+-tree entry: 4-byte b-coordinate + 4-byte speed + 4-byte pointer.
/// assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 12), 341);
/// ```
#[must_use]
pub fn page_capacity(page_size: usize, entry_bytes: usize) -> usize {
    assert!(entry_bytes > 0, "entry size must be positive");
    page_size / entry_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_page_capacities() {
        assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 20), 204);
        assert_eq!(page_capacity(DEFAULT_PAGE_SIZE, 12), 341);
    }

    #[test]
    #[should_panic(expected = "entry size must be positive")]
    fn zero_entry_size_panics() {
        let _ = page_capacity(DEFAULT_PAGE_SIZE, 0);
    }
}
