//! The typed error surfaced by the fallible (`try_*`) pager APIs.

use crate::store::PageId;

/// The panic message of the one infallible layer: `mobidx-core`'s
/// `Index1D` / `Index2D` / `MotionDb` calls, and `mobidx-ptree`'s forest,
/// which has no fallible API. Every page-store call there is a `try_*`
/// call that expects this. It fires only when a fault-injecting backend
/// is armed under that layer; the index crates' own `try_*` methods
/// report the fault as a [`PagerError`] instead. Defined here, below
/// both crates, so that they share one message.
pub const PAGER_FAULT: &str =
    "pager fault under the infallible index API (use the try_* API with fault-injecting backends)";

/// A storage fault observed while accessing a [`crate::PageStore`].
///
/// Every variant corresponds to a distinct failure mode of the simulated
/// disk (see [`crate::FaultStore`]); infallible backends never produce
/// one. The index crates propagate these unchanged through their own
/// `try_*` APIs, so a caller always learns *which page* misbehaved and
/// *how*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagerError {
    /// A page could not be fetched from the backend (buffer-miss read).
    ReadFailed {
        /// The page whose fetch failed.
        page: PageId,
    },
    /// A page mutation was rejected before any byte was applied; the
    /// page still holds its previous contents.
    WriteFailed {
        /// The page whose update failed.
        page: PageId,
    },
    /// A page mutation was *partially applied* (torn): the in-store copy
    /// holds the new contents, but durability was not acknowledged. The
    /// enclosing multi-page operation must be treated as failed and the
    /// structure recovered (see DESIGN.md, "Fault model & recovery
    /// guarantees").
    TornWrite {
        /// The page whose update tore.
        page: PageId,
    },
    /// The backing store died after its fault plan's I/O budget was
    /// exhausted; every subsequent access fails with this error.
    Crashed {
        /// Number of physical I/Os the store had served when it died.
        after_ios: u64,
    },
}

impl PagerError {
    /// The page involved, if the fault is page-scoped.
    #[must_use]
    pub fn page(&self) -> Option<PageId> {
        match *self {
            PagerError::ReadFailed { page }
            | PagerError::WriteFailed { page }
            | PagerError::TornWrite { page } => Some(page),
            PagerError::Crashed { .. } => None,
        }
    }

    /// Whether the fault may have left the page (and hence any
    /// multi-page operation in flight) partially applied.
    #[must_use]
    pub fn is_torn(&self) -> bool {
        matches!(self, PagerError::TornWrite { .. })
    }

    /// Whether the whole store is dead (every further access will fail).
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, PagerError::Crashed { .. })
    }
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PagerError::ReadFailed { page } => write!(f, "read of page {page} failed"),
            PagerError::WriteFailed { page } => write!(f, "write of page {page} failed"),
            PagerError::TornWrite { page } => write!(f, "torn write on page {page}"),
            PagerError::Crashed { after_ios } => {
                write!(f, "store crashed after {after_ios} I/Os")
            }
        }
    }
}

impl std::error::Error for PagerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_accessors() {
        let p = PageId::from_index(3);
        let e = PagerError::ReadFailed { page: p };
        assert_eq!(e.to_string(), "read of page p3 failed");
        assert_eq!(e.page(), Some(p));
        assert!(!e.is_torn());
        assert!(!e.is_crash());

        let t = PagerError::TornWrite { page: p };
        assert!(t.is_torn());

        let c = PagerError::Crashed { after_ios: 42 };
        assert_eq!(c.page(), None);
        assert!(c.is_crash());
        assert_eq!(c.to_string(), "store crashed after 42 I/Os");
    }
}
