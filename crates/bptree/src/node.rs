//! B+-tree node layout.

use crate::{cmp_entry, Key};
use mobidx_pager::wal::{put_splice, put_splice_head};
use mobidx_pager::{ByteReader, FixedCodec, PageCodec, PageId};
use std::cmp::Ordering;

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

/// A node is cloned when the page store copies a page on write (a page
/// a snapshot still shares), and an edit always follows. The derived
/// clone is exact-capacity, so the insert behind it would reallocate —
/// copy the leaf a second time and leave a doubled buffer behind; a leaf
/// copy therefore reserves the one slot that edit needs. When the store
/// has a spare page to copy into, `clone_from` reuses that page's
/// buffers instead of allocating.
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

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (
                Node::Leaf { entries, next },
                Node::Leaf {
                    entries: from,
                    next: from_next,
                },
            ) => {
                entries.clear();
                entries.reserve(from.len() + 1);
                entries.extend_from_slice(from);
                *next = *from_next;
            }
            (
                Node::Branch { seps, children },
                Node::Branch {
                    seps: from_seps,
                    children: from_children,
                },
            ) => {
                seps.clone_from(from_seps);
                children.clone_from(from_children);
            }
            (this, source) => *this = source.clone(),
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
///
/// A node also offers itself as a *delta* against an earlier version of
/// the same page, leaf against leaf and branch against branch: the
/// header when the count changed, one splice per run of entries that
/// left the page and entries that took their place, the leaf's `next`
/// or the branch's child ids where they differ. An update moves one
/// 24-byte entry out of a leaf and one into another; the delta says
/// that, the image says all 341.
impl<K: Key + FixedCodec, V: Ord + FixedCodec> PageCodec for Node<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf { entries, next } => {
                out.extend_from_slice(&header(TAG_LEAF, entries.len()));
                for (k, v) in entries {
                    k.write(out);
                    v.write(out);
                }
                next.map_or(NO_NEXT, PageId::index).write(out);
            }
            Node::Branch { seps, children } => {
                out.extend_from_slice(&header(TAG_BRANCH, children.len()));
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

    fn encode_delta(&self, base: &Self, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let image_len = match (base, self) {
            (
                Node::Leaf {
                    entries: was,
                    next: next_was,
                },
                Node::Leaf { entries, next },
            ) => {
                if was.len() != entries.len() {
                    put_splice(out, 0, HEADER_LEN, &header(TAG_LEAF, entries.len()));
                }
                let (next_at, image_len) = splice_entry_runs(was, entries, out);
                if next_was != next {
                    let id = next.map_or(NO_NEXT, PageId::index).to_le_bytes();
                    put_splice(out, next_at, 4, &id);
                }
                image_len + 4
            }
            (
                Node::Branch {
                    seps: seps_was,
                    children: was,
                },
                Node::Branch { seps, children },
            ) => {
                if was.len() != children.len() {
                    put_splice(out, 0, HEADER_LEN, &header(TAG_BRANCH, children.len()));
                }
                let (children_at, image_len) = splice_entry_runs(seps_was, seps, out);
                // The child ids between their common prefix and suffix.
                let head = was.iter().zip(children).take_while(|(a, b)| a == b).count();
                let tail = was[head..]
                    .iter()
                    .rev()
                    .zip(children[head..].iter().rev())
                    .take_while(|(a, b)| a == b)
                    .count();
                let (gone, came) = (was.len() - head - tail, children.len() - head - tail);
                if gone + came > 0 {
                    let at = children_at + 4 * to_u32(head);
                    put_splice_head(out, at, 4 * to_u32(gone), 4 * to_u32(came));
                    for child in &children[head..head + came] {
                        child.index().write(out);
                    }
                }
                image_len + 4 * children.len()
            }
            // A page does not change kind in place; were it to, the
            // image says so.
            _ => return false,
        };
        if out.len() - start >= image_len {
            out.truncate(start);
            return false;
        }
        true
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

/// Bytes of the `[tag][count: u16]` header every image starts with.
const HEADER_LEN: u32 = 3;

fn header(tag: u8, count: usize) -> [u8; HEADER_LEN as usize] {
    let count = u16::try_from(count).expect("node exceeds u16 entries");
    let [lo, hi] = count.to_le_bytes();
    [tag, lo, hi]
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("page image exceeds u32")
}

/// Appends one splice per run of entries gone from `was` and entries of
/// `now` in their place, found by one merge walk over the two sorted
/// arrays. Returns the offset just past the entries in the *base* image
/// (where a leaf's `next` or a branch's child ids start) and the length
/// of header plus entries in the *new* image.
///
/// The walk runs on the typed entries and encodes nothing but the `now`
/// entries of each run, straight into `out`; offsets and lengths are
/// arithmetic on the entry width. Two entries are the same only when
/// their images are ([`FixedCodec::same_image`]): [`cmp_entry`] calls
/// −0.0 and 0.0 equal, the image does not. The order only decides which
/// side of a difference the walk steps over, so the splices rebuild the
/// new entries whatever it says.
fn splice_entry_runs<K: Key + FixedCodec, V: Ord + FixedCodec>(
    was: &[(K, V)],
    now: &[(K, V)],
    out: &mut Vec<u8>,
) -> (u32, usize) {
    let Some(first) = was.first().or(now.first()) else {
        return (HEADER_LEN, HEADER_LEN as usize);
    };
    // `FixedCodec`: every entry has the width of the first — measured
    // in `out` and taken back.
    let start = out.len();
    first.write(out);
    let width = out.len() - start;
    out.truncate(start);
    let at = |i: usize| HEADER_LEN + to_u32(i * width);
    let paired = |i: usize, j: usize| i < was.len() && j < now.len() && was[i].same_image(&now[j]);
    let (mut i, mut j) = (0, 0);
    loop {
        while paired(i, j) {
            i += 1;
            j += 1;
        }
        if i == was.len() && j == now.len() {
            break;
        }
        // A run: up to the next pair of same entries, or both ends.
        let (gone_from, came_from) = (i, j);
        loop {
            if i == was.len() {
                j = now.len();
            } else if j == now.len() {
                i = was.len();
            } else {
                match cmp_entry(&was[i], &now[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            if paired(i, j) || (i == was.len() && j == now.len()) {
                break;
            }
        }
        let (gone, came) = (i - gone_from, j - came_from);
        put_splice_head(
            out,
            at(gone_from),
            to_u32(gone * width),
            to_u32(came * width),
        );
        for entry in &now[came_from..j] {
            entry.write(out);
        }
    }
    (at(was.len()), HEADER_LEN as usize + now.len() * width)
}

/// The walk [`splice_entry_runs`] replaced, kept as its oracle: it
/// encodes both sides whole and compares entries by their bytes.
///
/// Two entries are the same only when their encoded bytes are:
/// [`cmp_entry`] calls −0.0 and 0.0 equal, the image does not. The order
/// only decides which side of a difference the walk steps over, so the
/// splices rebuild the new entries whatever it says.
#[cfg(test)]
fn splice_entry_runs_by_bytes<K: Key + FixedCodec, V: Ord + FixedCodec>(
    was: &[(K, V)],
    now: &[(K, V)],
    out: &mut Vec<u8>,
) -> (u32, usize) {
    let total = was.len() + now.len();
    if total == 0 {
        return (HEADER_LEN, HEADER_LEN as usize);
    }
    let mut bytes = Vec::with_capacity(total * std::mem::size_of::<(K, V)>());
    for (k, v) in was.iter().chain(now) {
        k.write(&mut bytes);
        v.write(&mut bytes);
    }
    // `FixedCodec`: every entry has the same width.
    let width = bytes.len() / total;
    let (was_bytes, now_bytes) = bytes.split_at(was.len() * width);
    let same = |i: usize, j: usize| {
        was_bytes[i * width..(i + 1) * width] == now_bytes[j * width..(j + 1) * width]
    };
    let at = |i: usize| HEADER_LEN + to_u32(i * width);
    let paired = |i: usize, j: usize| i < was.len() && j < now.len() && same(i, j);
    let (mut i, mut j) = (0, 0);
    loop {
        while paired(i, j) {
            i += 1;
            j += 1;
        }
        if i == was.len() && j == now.len() {
            break;
        }
        // A run: up to the next pair of same entries, or both ends.
        let (gone_from, came_from) = (i, j);
        loop {
            if i == was.len() {
                j = now.len();
            } else if j == now.len() {
                i = was.len();
            } else {
                match cmp_entry(&was[i], &now[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            if paired(i, j) || (i == was.len() && j == now.len()) {
                break;
            }
        }
        put_splice(
            out,
            at(gone_from),
            to_u32((i - gone_from) * width),
            &now_bytes[came_from * width..j * width],
        );
    }
    (at(was.len()), HEADER_LEN as usize + now_bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn image(node: &Node<f64, u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        node.encode(&mut bytes);
        bytes
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

    /// `now.encode_delta(was)`: `None` when declined (and `out` left as
    /// found), else the delta's size — after checking that it rebuilds
    /// `now`'s image from `was`'s byte for byte.
    fn delta_len(was: &Node<f64, u64>, now: &Node<f64, u64>) -> Option<usize> {
        let mut out = vec![0xEE; 5];
        if !now.encode_delta(was, &mut out) {
            assert_eq!(out, vec![0xEE; 5], "a declined delta leaves `out` as found");
            return None;
        }
        assert_eq!(out[..5], [0xEE; 5], "a delta is appended");
        let (mut before, mut after) = (Vec::new(), Vec::new());
        was.encode(&mut before);
        now.encode(&mut after);
        assert!(out.len() - 5 < after.len(), "an offered delta is smaller");
        let rebuilt = mobidx_pager::wal::apply_splices(&before, &out[5..]);
        assert_eq!(rebuilt.as_deref(), Some(&after[..]));
        Some(out.len() - 5)
    }

    fn leaf(entries: Vec<(f64, u64)>, next: Option<u32>) -> Node<f64, u64> {
        Node::Leaf {
            entries,
            next: next.map(PageId::from_index),
        }
    }

    fn run(range: std::ops::Range<u64>) -> Vec<(f64, u64)> {
        #[allow(clippy::cast_precision_loss)]
        range.map(|i| (i as f64, i)).collect()
    }

    #[test]
    fn leaf_delta_is_the_entries_that_changed() {
        let was = leaf(run(0..340), Some(9));
        // One entry in: a header splice and the 16 bytes of the entry.
        let mut entries = run(0..340);
        entries.insert(100, (99.5, 7));
        assert_eq!(delta_len(&was, &leaf(entries, Some(9))), Some(15 + 12 + 16));
        // One entry out: a header splice and a removal with no bytes.
        let mut entries = run(0..340);
        entries.remove(339);
        assert_eq!(delta_len(&was, &leaf(entries, Some(9))), Some(15 + 12));
        // The left half of a split: header, one removal, `next` — and
        // not a byte of any entry.
        assert_eq!(
            delta_len(&was, &leaf(run(0..170), Some(12))),
            Some(15 + 12 + 16)
        );
        // One out and one in at different places: the count stands, two
        // splices. Next to each other: one.
        let mut entries = run(0..340);
        entries.remove(300);
        entries.insert(3, (2.5, 1));
        assert_eq!(delta_len(&was, &leaf(entries, Some(9))), Some(12 + 16 + 12));
        let mut entries = run(0..340);
        entries[200] = (200.0, 201);
        assert_eq!(delta_len(&was, &leaf(entries, Some(9))), Some(12 + 16));
        // Nothing changed (a remove and a re-insert of the same entry).
        assert_eq!(delta_len(&was, &was.clone()), Some(0));
        // Both ends at once, `next` cleared.
        let mut entries = run(0..340);
        entries.insert(0, (-1.0, 0));
        entries.push((1e9, 0));
        assert_eq!(
            delta_len(&was, &leaf(entries, None)),
            Some(15 + 2 * (12 + 16) + 16)
        );
        // To and from the empty leaf: its image is smaller than any
        // splice, and a leaf filled from nothing is all new bytes.
        let empty = leaf(Vec::new(), None);
        assert_eq!(delta_len(&was, &empty), None);
        assert_eq!(delta_len(&empty, &was), None);
    }

    #[test]
    fn entries_are_the_same_only_if_their_bytes_are() {
        // The tree's order calls −0.0 and 0.0 one key; the image has a
        // sign bit. A delta that trusted the order would leave the old
        // zero in place.
        let filler = run(1..200);
        let with_zero = |zero: f64| {
            let mut entries = vec![(zero, 5)];
            entries.extend_from_slice(&filler);
            leaf(entries, None)
        };
        assert_eq!(
            delta_len(&with_zero(0.0), &with_zero(-0.0)),
            Some(12 + 16),
            "the entry is rewritten"
        );
        assert_eq!(delta_len(&with_zero(-0.0), &with_zero(-0.0)), Some(0));
        // Duplicates of one entry, and both zeros side by side.
        let dup = |n: usize| {
            let mut entries = vec![(0.0, 5); n];
            entries.push((-0.0, 5));
            entries.extend_from_slice(&filler);
            leaf(entries, None)
        };
        assert!(delta_len(&dup(1), &dup(3)).is_some());
        assert!(delta_len(&dup(3), &dup(0)).is_some());
    }

    fn branch(seps: Vec<(f64, u64)>, children: &[u32]) -> Node<f64, u64> {
        Node::Branch {
            seps,
            children: children.iter().map(|&c| PageId::from_index(c)).collect(),
        }
    }

    #[test]
    fn branch_delta_is_the_separators_and_child_ids_that_changed() {
        let ids: Vec<u32> = (100..200).collect();
        let was = branch(run(1..100), &ids);
        // A child split: one separator and one child id more.
        let mut seps = run(1..100);
        seps.insert(40, (40.5, 0));
        let mut children = ids.clone();
        children.insert(41, 777);
        assert_eq!(
            delta_len(&was, &branch(seps, &children)),
            Some(15 + (12 + 16) + (12 + 4))
        );
        // Two children merged: one separator and one child id less.
        let mut seps = run(1..100);
        seps.remove(10);
        let mut children = ids.clone();
        children.remove(11);
        assert_eq!(
            delta_len(&was, &branch(seps, &children)),
            Some(15 + 12 + 12)
        );
        // A borrow between siblings: one separator moves, no id does.
        let mut seps = run(1..100);
        seps[50] = (50.5, 3);
        assert_eq!(delta_len(&was, &branch(seps, &ids)), Some(12 + 16));
        // The left half of a branch split.
        assert!(delta_len(&was, &branch(run(1..50), &ids[..50])).is_some());
        // Every child replaced: the ids between an empty prefix and suffix.
        let other: Vec<u32> = (300..400).collect();
        assert_eq!(
            delta_len(&was, &branch(run(1..100), &other)),
            Some(12 + 400)
        );
    }

    #[test]
    fn delta_declines_across_kinds_and_when_not_smaller_than_the_image() {
        let small = leaf(run(0..2), None);
        let other = leaf(vec![(7.0, 7), (8.0, 8)], Some(1));
        assert_eq!(
            delta_len(&small, &other),
            None,
            "rewrites all of a tiny leaf"
        );
        let b = branch(run(1..3), &[1, 2, 3]);
        assert_eq!(delta_len(&small, &b), None);
        assert_eq!(delta_len(&b, &small), None);
    }

    /// An observation-tree entry: `(b, (velocity bits, id))`.
    type ObsEntry = (f64, (u64, u64));

    /// Keys from a handful of values, so runs, duplicates and ties are
    /// common: both zeros, the infinities and NaNs of three payloads
    /// among them.
    fn delta_key() -> impl Strategy<Value = f64> {
        prop_oneof![
            12 => (0u32..24).prop_map(f64::from),
            2 => Just(0.0f64),
            2 => Just(-0.0f64),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => (0u64..3).prop_map(|p| f64::from_bits(0x7FF8_0000_0000_0000 | p)),
        ]
    }

    /// Values that break key ties: few velocities (among them a NaN's
    /// bits), few ids.
    fn delta_value() -> impl Strategy<Value = (u64, u64)> {
        (0u64..4, 0u64..3).prop_map(|(v, id)| {
            let bits = [1.0f64.to_bits(), (-1.0f64).to_bits(), f64::NAN.to_bits(), 0];
            (bits[v as usize], id)
        })
    }

    /// The page's order as far as it has one: by key (NaNs by their
    /// bits, last), then by value.
    fn page_order(a: &ObsEntry, b: &ObsEntry) -> Ordering {
        a.0.partial_cmp(&b.0)
            .unwrap_or_else(|| a.0.total_cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    }

    /// `was` edited into `now`: each edit removes the entry at a spot,
    /// inserts one, or swaps a zero key for the other zero.
    fn edited(was: &[ObsEntry], edits: &[(u8, usize, ObsEntry)]) -> Vec<ObsEntry> {
        let mut now = was.to_vec();
        for &(kind, at, entry) in edits {
            match kind % 3 {
                0 if !now.is_empty() => drop(now.remove(at % now.len())),
                1 if !now.is_empty() => {
                    let n = now.len();
                    let e = &mut now[at % n];
                    if e.0 == 0.0 {
                        e.0 = -e.0;
                    }
                }
                _ => now.push(entry),
            }
        }
        now.sort_by(page_order);
        now.truncate(341);
        now
    }

    /// What a walk appends and returns — or that it panicked (a NaN key
    /// the order cannot place), which both walks must do alike.
    fn walk(
        typed: bool,
        was: &[ObsEntry],
        now: &[ObsEntry],
    ) -> std::thread::Result<(Vec<u8>, u32, usize)> {
        std::panic::catch_unwind(|| {
            let mut out = vec![0xEE; 3];
            let (at, len) = if typed {
                splice_entry_runs(was, now, &mut out)
            } else {
                splice_entry_runs_by_bytes(was, now, &mut out)
            };
            (out, at, len)
        })
    }

    /// `now.encode_delta(was)` rebuilds `now`'s image from `was`'s, or
    /// declines and leaves `out` as found.
    fn rebuilds(was: &Node<f64, (u64, u64)>, now: &Node<f64, (u64, u64)>) -> bool {
        let mut out = vec![0xEE; 2];
        if !now.encode_delta(was, &mut out) {
            return out == [0xEE; 2];
        }
        let (mut before, mut after) = (Vec::new(), Vec::new());
        was.encode(&mut before);
        now.encode(&mut after);
        out.len() - 2 < after.len()
            && mobidx_pager::wal::apply_splices(&before, &out[2..]).as_deref() == Some(&after[..])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The typed walk emits the byte walk's splices, byte for byte,
        /// and returns the same offsets — on empty pages and full ones,
        /// duplicate keys broken by value, both zeros and NaN keys.
        #[test]
        fn the_typed_walk_equals_the_byte_walk(
            base in prop::collection::vec((delta_key(), delta_value()), 0..342),
            edits in prop::collection::vec(
                (0u8..3, 0usize..400, (delta_key(), delta_value())),
                0..12,
            ),
            full in 0u8..8,
        ) {
            let mut was = base;
            if full == 0 {
                // A full page: pad to 341 entries past every key drawn.
                let mut id = 0;
                while was.len() < 341 {
                    was.push((1e6, (0, id)));
                    id += 1;
                }
            }
            was.sort_by(page_order);
            let now = edited(&was, &edits);
            let (typed, bytes) = (walk(true, &was, &now), walk(false, &was, &now));
            match (&typed, &bytes) {
                (Ok(t), Ok(b)) => prop_assert_eq!(t, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "one walk panicked, the other did not"),
            }
            if typed.is_ok() {
                let leaf = |entries: Vec<ObsEntry>, next: Option<u32>| Node::Leaf {
                    entries,
                    next: next.map(PageId::from_index),
                };
                let next = if full == 1 { None } else { Some(4) };
                let rebuilt = rebuilds(&leaf(was.clone(), Some(4)), &leaf(now.clone(), next));
                prop_assert!(rebuilt, "leaf delta");
                // The same entries as branch separators, each page with
                // one child id more than separators; a child or two
                // replaced where the separators changed.
                let ids = |n: usize, shift: u32| -> Vec<PageId> {
                    (0..=n)
                        .map(|c| {
                            let c = u32::try_from(c).unwrap();
                            PageId::from_index(if c % 7 == 3 { c + shift } else { c })
                        })
                        .collect()
                };
                let (seps_was, seps_now) = (was.len(), now.len());
                let rebuilt = rebuilds(
                    &Node::Branch { seps: was, children: ids(seps_was, 0) },
                    &Node::Branch { seps: now, children: ids(seps_now, u32::from(full)) },
                );
                prop_assert!(rebuilt, "branch delta");
            }
        }
    }

    #[test]
    fn clone_from_keeps_the_destination_allocation() {
        let mut spare = leaf(run(0..300), Some(4));
        let kept = match &spare {
            Node::Leaf { entries, .. } => (entries.as_ptr(), entries.capacity()),
            Node::Branch { .. } => unreachable!(),
        };
        let source = leaf(run(10..200), Some(9));
        spare.clone_from(&source);
        match &spare {
            Node::Leaf { entries, next } => {
                assert_eq!((entries.as_ptr(), entries.capacity()), kept);
                assert!(entries.capacity() > entries.len(), "room for the edit");
                assert_eq!(*next, Some(PageId::from_index(9)));
            }
            Node::Branch { .. } => panic!("a leaf copy stays a leaf"),
        }
        assert_eq!(image(&spare), image(&source));
        // A spare of the other kind is simply replaced.
        let b = branch(run(1..3), &[1, 2, 3]);
        spare.clone_from(&b);
        assert_eq!(image(&spare), image(&b));
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
