//! B+-tree node layout.

use mobidx_pager::{ByteReader, FixedCodec, PageCodec, PageId};

/// One page of the tree.
///
/// * `Leaf` pages hold up to `leaf_cap` `(key, value)` entries sorted
///   lexicographically, plus a pointer to the next leaf (for range scans).
/// * `Branch` pages hold `children.len()` child pointers and
///   `children.len() − 1` separators; child `i` covers entries `e` with
///   `seps[i−1] ≤ e < seps[i]` (an entry equal to a separator lives in the
///   child to the *right* of it).
#[derive(Debug)]
pub enum Node<K, V> {
    /// A leaf page.
    Leaf {
        /// Sorted `(key, value)` entries.
        entries: Vec<(K, V)>,
        /// The next leaf in key order, if any.
        next: Option<PageId>,
    },
    /// An internal page.
    Branch {
        /// Separator entries; `seps.len() == children.len() - 1`.
        seps: Vec<(K, V)>,
        /// Child page ids.
        children: Vec<PageId>,
    },
}

/// A node is cloned when the page store copies a page on write
/// (`Arc::make_mut` on a page a snapshot still shares), and an edit
/// always follows. The derived clone is exact-capacity, so the insert
/// behind it would reallocate — copy the leaf a second time and leave a
/// doubled buffer behind; a leaf copy therefore reserves the one slot
/// that edit needs.
impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf { entries, next } => {
                let mut copy = Vec::with_capacity(entries.len() + 1);
                copy.extend_from_slice(entries);
                Node::Leaf {
                    entries: copy,
                    next: *next,
                }
            }
            Node::Branch { seps, children } => Node::Branch {
                seps: seps.clone(),
                children: children.clone(),
            },
        }
    }
}

impl<K, V> Node<K, V> {
    /// Creates an empty leaf.
    #[must_use]
    pub fn empty_leaf() -> Self {
        Node::Leaf {
            entries: Vec::new(),
            next: None,
        }
    }

    /// Whether this page is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of entries (leaf) or children (branch) — the quantity that
    /// occupancy invariants constrain.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Branch { children, .. } => children.len(),
        }
    }
}

/// Leaf page tag in the byte image.
const TAG_LEAF: u8 = 0;
/// Branch page tag in the byte image.
const TAG_BRANCH: u8 = 1;
/// Sentinel index encoding `next: None` in a leaf image.
const NO_NEXT: u32 = u32::MAX;

/// Byte image of a node, for durable backends
/// ([`mobidx_pager::FileBackend`]):
///
/// * leaf:   `[0u8][count: u16][(K, V) × count][next: u32]` with
///   `u32::MAX` standing for "no next leaf";
/// * branch: `[1u8][count: u16][(K, V) × (count − 1)][child index: u32
///   × count]`.
///
/// Counts are `u16` — page capacities are derived from 4096-byte pages
/// (§5 of the paper, B = 341), far below `u16::MAX`. Corruption
/// detection is the framing's job (every WAL record and page-file slot
/// is CRC-checked); `decode` only rejects images it cannot understand.
impl<K: FixedCodec, V: FixedCodec> PageCodec for Node<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf { entries, next } => {
                out.push(TAG_LEAF);
                u16::try_from(entries.len())
                    .expect("leaf exceeds u16 entries")
                    .write(out);
                for (k, v) in entries {
                    k.write(out);
                    v.write(out);
                }
                next.map_or(NO_NEXT, PageId::index).write(out);
            }
            Node::Branch { seps, children } => {
                out.push(TAG_BRANCH);
                u16::try_from(children.len())
                    .expect("branch exceeds u16 children")
                    .write(out);
                for (k, v) in seps {
                    k.write(out);
                    v.write(out);
                }
                for child in children {
                    child.index().write(out);
                }
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        let node = match tag {
            TAG_LEAF => {
                let count = r.u16()? as usize;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((K::read(&mut r)?, V::read(&mut r)?));
                }
                let next = match r.u32()? {
                    NO_NEXT => None,
                    idx => Some(PageId::from_index(idx)),
                };
                Node::Leaf { entries, next }
            }
            TAG_BRANCH => {
                let count = r.u16()? as usize;
                if count == 0 {
                    return None;
                }
                let mut seps = Vec::with_capacity(count - 1);
                for _ in 0..count - 1 {
                    seps.push((K::read(&mut r)?, V::read(&mut r)?));
                }
                let mut children = Vec::with_capacity(count);
                for _ in 0..count {
                    children.push(PageId::from_index(r.u32()?));
                }
                Node::Branch { seps, children }
            }
            _ => return None,
        };
        if !r.is_empty() {
            return None;
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_counts_the_right_thing() {
        let leaf: Node<f64, u64> = Node::Leaf {
            entries: vec![(1.0, 1), (2.0, 2)],
            next: None,
        };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.occupancy(), 2);

        let branch: Node<f64, u64> = Node::Branch {
            seps: vec![(5.0, 0)],
            children: vec![PageId::from_index(0), PageId::from_index(1)],
        };
        assert!(!branch.is_leaf());
        assert_eq!(branch.occupancy(), 2);
    }

    #[test]
    fn leaf_clone_has_room_for_the_edit_that_follows() {
        let leaf: Node<f64, u64> = Node::Leaf {
            entries: vec![(1.0, 1); 341],
            next: Some(PageId::from_index(3)),
        };
        let Node::Leaf { mut entries, next } = leaf.clone() else {
            panic!("leaf cloned as branch");
        };
        assert_eq!(next, Some(PageId::from_index(3)));
        let buffer = entries.as_ptr();
        entries.insert(0, (0.0, 0));
        assert_eq!(entries.as_ptr(), buffer, "the insert reallocated");
        assert_eq!(entries.len(), 342);
    }

    fn round_trip(node: &Node<f64, u64>) -> Node<f64, u64> {
        let mut bytes = Vec::new();
        node.encode(&mut bytes);
        Node::decode(&bytes).expect("image must decode")
    }

    #[test]
    fn leaf_image_round_trips() {
        let leaf: Node<f64, u64> = Node::Leaf {
            entries: vec![(-1.5, 7), (0.0, 0), (3.25, u64::MAX)],
            next: Some(PageId::from_index(42)),
        };
        match round_trip(&leaf) {
            Node::Leaf { entries, next } => {
                assert_eq!(entries, vec![(-1.5, 7), (0.0, 0), (3.25, u64::MAX)]);
                assert_eq!(next, Some(PageId::from_index(42)));
            }
            Node::Branch { .. } => panic!("leaf decoded as branch"),
        }
        let terminal: Node<f64, u64> = Node::Leaf {
            entries: Vec::new(),
            next: None,
        };
        match round_trip(&terminal) {
            Node::Leaf { entries, next } => {
                assert!(entries.is_empty());
                assert!(next.is_none());
            }
            Node::Branch { .. } => panic!("leaf decoded as branch"),
        }
    }

    #[test]
    fn branch_image_round_trips() {
        let branch: Node<f64, u64> = Node::Branch {
            seps: vec![(5.0, 3), (9.5, 1)],
            children: vec![
                PageId::from_index(0),
                PageId::from_index(7),
                PageId::from_index(2),
            ],
        };
        match round_trip(&branch) {
            Node::Branch { seps, children } => {
                assert_eq!(seps, vec![(5.0, 3), (9.5, 1)]);
                assert_eq!(children.len(), 3);
                assert_eq!(children[1], PageId::from_index(7));
            }
            Node::Leaf { .. } => panic!("branch decoded as leaf"),
        }
    }

    #[test]
    fn bad_images_are_rejected() {
        // Unknown tag.
        assert!(Node::<f64, u64>::decode(&[9, 0, 0]).is_none());
        // Childless branch.
        assert!(Node::<f64, u64>::decode(&[1, 0, 0]).is_none());
        // Truncated and padded images.
        let leaf: Node<f64, u64> = Node::Leaf {
            entries: vec![(1.0, 1)],
            next: None,
        };
        let mut bytes = Vec::new();
        leaf.encode(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                Node::<f64, u64>::decode(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        bytes.push(0);
        assert!(
            Node::<f64, u64>::decode(&bytes).is_none(),
            "trailing bytes must not decode"
        );
    }
}
