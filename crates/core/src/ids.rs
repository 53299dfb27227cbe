//! The id-assembly kernel: the one place an answer's ids are sorted,
//! deduplicated and merged.
//!
//! Every index method ends a query with "sort the collected ids, drop
//! duplicates" (the [`Index1D`](crate::Index1D) postcondition), and every
//! fan-out surface — the sharded facade's legs, the velocity-partitioned
//! method's bands — then combines answers that already meet it. On a
//! large answer those two steps, not the tree walk, dominate the CPU
//! bill, so they live here once:
//!
//! * [`assemble`] — the one way an index builds an answer: it lends the
//!   index a per-thread candidate buffer to collect ids into, in any
//!   order and with duplicates, finishes them as [`finish_ids`] does,
//!   and writes the answer to the caller's `Vec` once, at its final
//!   length (the bitmap form straight from its bits). The candidate
//!   buffer keeps its high-water capacity, like the scratch the forms
//!   below use, so a steady-state query grows no buffer and a fresh
//!   answer `Vec` holds exactly its ids;
//! * [`finish_ids`] — one of three forms, chosen per call by one pass
//!   that measures the list's span `lo..=hi` and its varying bytes:
//!   - below `RADIX_MIN_LEN` ids, a comparison sort then dedup;
//!   - when the span needs at most one 64-bit word per two ids
//!     (`DENSE_IDS_PER_WORD`), a presence bitmap: one scattered pass
//!     sets a bit per id (duplicates collapse for free) and one linear
//!     scan writes the set bits back in order — object ids are dense
//!     integers, so a large answer lands here (20k ids over a 200k span
//!     at the paper's N is 6.5 ids a word);
//!   - otherwise an LSD radix sort over only the bytes that vary across
//!     the list, then dedup (small answers over a wide span, hashed ids);
//! * [`merge_sorted_ids`] — a branch-free two-way merge over borrowed
//!   slices, run directly on two lists and as a tournament on more.
//!
//! An answer that is only a part of a larger one — a shard's leg, a
//! speed band's share — need not be written out as ids at all. It is
//! finished into an [`IdSet`], which holds one of two forms in one
//! `Vec<u64>`: the sorted, deduplicated ids, or, when [`finish_ids`]
//! would have chosen the bitmap, the presence bitmap itself, its words
//! aligned to multiples of 64. [`assemble_set`] fills one, and
//! [`union`] is the one fan-in: it ORs the parts' bitmaps word for word
//! (setting the bits of any sorted parts) and unpacks the union once,
//! or merges when the union is too sparse for a bitmap. [`union_set`]
//! is the same fan-in into a set, so a union that is itself a part (the
//! velocity-partitioned view's bands, answering a shard's leg) stays
//! packed too. A bitmap is unpacked eight slots a word, without a
//! branch per id.
//!
//! All of them borrow one per-thread scratch, so a steady-state read
//! allocates nothing but the answer it returns.

use std::cell::RefCell;

/// Lists shorter than this are comparison-sorted: a radix pass costs a
/// 256-bucket histogram and prefix sum whatever the length, which only
/// pays for itself from a few hundred ids up.
const RADIX_MIN_LEN: usize = 256;

/// A list takes the bitmap form when its span fits in at most one
/// 64-bit word per this many ids. The bitmap costs a clear and a scan
/// per word on top of a scatter per id, radix three scatters per id at
/// the paper's N. Forcing each form over 1.4k and 10k ids puts the
/// crossover near one id per eight words; two ids a word keeps the
/// bitmap where it wins by 2–3× (the `id_kernel` rows `paper_cold` and
/// `read_large_leg`) and leaves small answers over a wide span (the
/// `mixed_rw_leg` row, 0.45 ids a word) on the radix form.
const DENSE_IDS_PER_WORD: u64 = 2;

/// Reused working memory of the kernel, one per thread (snapshot legs
/// run on the caller's thread and on read-pool helpers alike).
#[derive(Default)]
struct Scratch {
    /// The buffer [`assemble`] lends an index to collect candidates in.
    candidates: Vec<u64>,
    /// The radix sort's second buffer / the merge's ping-pong partner.
    ids: Vec<u64>,
    /// Run ends of the tournament merge's current round.
    ends: Vec<usize>,
    /// The bitmap form's presence words, bit `i` of word `w` standing
    /// for id `lo + 64 w + i`; [`union`]'s OR of its parts.
    bits: Vec<u64>,
    /// The bitmap parts of a sparse [`union`], written out as ids.
    unpacked: Vec<u64>,
    /// The set [`unpack_with`] lends its `fill`; after a sorted answer,
    /// the buffer the caller's `Vec` held.
    set: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Sorts and deduplicates with a comparison sort: the kernel's form for
/// short id lists and for element types other than ids (the join's id
/// pairs).
pub(crate) fn sort_dedup<T: Ord>(items: &mut Vec<T>) {
    items.sort_unstable();
    items.dedup();
}

/// How [`finish_ids`] sorts one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// Comparison sort: fewer than [`RADIX_MIN_LEN`] ids.
    Comparison,
    /// Presence bitmap of `words` words from `lo` up.
    Bitmap { lo: u64, words: usize },
    /// LSD radix over the bytes set in `varying`.
    Radix { varying: u64 },
}

/// Chooses the form for `ids` in one pass that gathers the span and the
/// varying bytes together, in four independent lanes so that no
/// accumulator waits on the one before.
fn form(ids: &[u64]) -> Form {
    let Some(&first) = ids.first().filter(|_| ids.len() >= RADIX_MIN_LEN) else {
        return Form::Comparison;
    };
    let quads = ids.chunks_exact(4);
    let rest = quads.remainder();
    let (mut lo, mut hi, mut varying) = ([first; 4], [first; 4], [0; 4]);
    for quad in quads {
        for lane in 0..4 {
            lo[lane] = lo[lane].min(quad[lane]);
            hi[lane] = hi[lane].max(quad[lane]);
            varying[lane] |= quad[lane] ^ first;
        }
    }
    for (lane, &id) in rest.iter().enumerate() {
        lo[lane] = lo[lane].min(id);
        hi[lane] = hi[lane].max(id);
        varying[lane] |= id ^ first;
    }
    let lo = lo.into_iter().min().unwrap_or(first);
    let hi = hi.into_iter().max().unwrap_or(first);
    let varying = varying.into_iter().fold(0, |all, lane| all | lane);
    let words = (hi - lo) / u64::BITS as u64 + 1;
    if words <= ids.len() as u64 / DENSE_IDS_PER_WORD {
        Form::Bitmap {
            lo,
            words: words as usize,
        }
    } else {
        Form::Radix { varying }
    }
}

/// Sorts and deduplicates a result id list in place (the `query`
/// postcondition).
pub fn finish_ids(ids: &mut Vec<u64>) {
    let form = form(ids);
    finish_in_place(ids, form);
}

/// A finished answer, or a part of one, in whichever of two forms the
/// kernel found cheaper: the sorted, deduplicated ids, or — when the
/// ids are dense enough that [`finish_ids`] would take the bitmap form —
/// that presence bitmap, left packed. [`assemble_set`] fills one,
/// [`union`] writes the ids of any number of them out once.
///
/// Either form lives in one `Vec<u64>`, so a set is made from a pooled
/// buffer ([`IdSet::from`]) and handed back ([`IdSet::into_buffer`])
/// with its allocation intact.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    /// The sorted ids, or the presence words when `bitmap_lo` is set.
    buf: Vec<u64>,
    /// `Some(lo)` when `buf` holds presence words, bit `i` of word `w`
    /// standing for id `lo + 64 w + i`. `lo` is a multiple of 64, so
    /// the bitmaps of two sets OR word for word, and the first and last
    /// words are non-zero.
    bitmap_lo: Option<u64>,
    /// The number of ids.
    len: usize,
}

impl IdSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no id.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Makes the set the list `fill` writes into its buffer (cleared
    /// first), which must be sorted and deduplicated.
    pub fn fill_sorted(&mut self, fill: impl FnOnce(&mut Vec<u64>)) {
        self.buf.clear();
        fill(&mut self.buf);
        debug_assert!(
            self.buf.windows(2).all(|pair| pair[0] < pair[1]),
            "not sorted and deduplicated"
        );
        self.bitmap_lo = None;
        self.len = self.buf.len();
    }

    /// The set's buffer, cleared, with its allocation.
    #[must_use]
    pub fn into_buffer(mut self) -> Vec<u64> {
        self.buf.clear();
        self.buf
    }

    /// Whether the set holds a presence bitmap.
    #[cfg(test)]
    pub(crate) fn is_bitmap(&self) -> bool {
        self.bitmap_lo.is_some()
    }

    /// The first id of the set's first 64-id word.
    fn first_word(&self) -> u64 {
        self.bitmap_lo.unwrap_or_else(|| self.buf[0] & !63)
    }

    /// The first id of the set's last 64-id word (never an exclusive
    /// end: a set may hold `u64::MAX`).
    fn last_word(&self) -> u64 {
        match self.bitmap_lo {
            Some(lo) => lo + 64 * (self.buf.len() as u64 - 1),
            None => self.buf[self.len - 1] & !63,
        }
    }

    /// Appends the set's ids to `out`.
    fn write_to(&self, out: &mut Vec<u64>) {
        match self.bitmap_lo {
            Some(lo) => unpack(&self.buf, lo, self.len, out),
            None => {
                out.reserve_exact(self.len);
                out.extend_from_slice(&self.buf);
            }
        }
    }
}

/// Takes over `buf` (a pooled buffer, say) as an empty set.
impl From<Vec<u64>> for IdSet {
    fn from(mut buf: Vec<u64>) -> Self {
        buf.clear();
        IdSet {
            buf,
            bitmap_lo: None,
            len: 0,
        }
    }
}

impl AsRef<IdSet> for IdSet {
    fn as_ref(&self) -> &IdSet {
        self
    }
}

/// Lends `collect` the thread's candidate buffer, empty, then hands the
/// filled buffer to `finish`. The buffer is taken out of the thread's
/// scratch for the call, so a `collect` that assembles an answer of its
/// own (a per-route search inside the route network's query) is lent a
/// buffer of its own.
fn with_candidates(collect: impl FnOnce(&mut Vec<u64>), finish: impl FnOnce(&mut Vec<u64>)) {
    let mut candidates = SCRATCH.with_borrow_mut(|scratch| std::mem::take(&mut scratch.candidates));
    candidates.clear();
    collect(&mut candidates);
    finish(&mut candidates);
    SCRATCH.with_borrow_mut(|scratch| scratch.candidates = candidates);
}

/// Builds one answer into `out` (cleared first): `collect` pushes the
/// candidate ids into the buffer it is lent (empty, in any order, with
/// duplicates), then the ids are sorted and deduplicated as
/// [`finish_ids`] does and written to `out` once, at their final length,
/// so an `out` without capacity ends with `capacity() == len()`. The
/// bitmap form writes the answer from its bits straight into `out`,
/// sized by one popcount pass over the words; the other two forms finish
/// in the candidate buffer, which is then copied.
pub fn assemble(out: &mut Vec<u64>, collect: impl FnOnce(&mut Vec<u64>)) {
    with_candidates(collect, |candidates| {
        out.clear();
        match form(candidates) {
            Form::Bitmap { lo, words } => SCRATCH.with_borrow_mut(|scratch| {
                set_bits(candidates, lo, words, &mut scratch.bits);
                unpack(&scratch.bits, lo, ones(&scratch.bits), out);
            }),
            form => {
                finish_in_place(candidates, form);
                out.reserve_exact(candidates.len());
                out.extend_from_slice(candidates);
            }
        }
    });
}

/// [`assemble`] into a set: the same one pass, but a list that the
/// kernel finds dense stays the presence bitmap it is sorted through,
/// its words starting at the multiple of 64 below the smallest id, and
/// is not written out as ids.
pub fn assemble_set(set: &mut IdSet, collect: impl FnOnce(&mut Vec<u64>)) {
    with_candidates(collect, |candidates| match form(candidates) {
        Form::Bitmap { lo, words } => {
            // Aligned down, the span may reach into one word more.
            let lo = lo & !63;
            set_bits(candidates, lo, words + 1, &mut set.buf);
            if set.buf.last() == Some(&0) {
                set.buf.pop();
            }
            set.bitmap_lo = Some(lo);
            set.len = ones(&set.buf);
        }
        form => {
            finish_in_place(candidates, form);
            set.fill_sorted(|buf| buf.extend_from_slice(candidates));
        }
    });
}

/// Lends `fill` a per-thread [`IdSet`] (empty) and leaves the ids it
/// holds afterwards in `out`: a bitmap is unpacked into `out` (cleared
/// first), and a sorted list is not copied at all — the set's buffer
/// becomes `out`, and `out`'s old buffer the thread's next set. The set
/// is taken out of the thread's scratch for the call, like
/// [`assemble`]'s candidate buffer.
pub fn unpack_with<R>(out: &mut Vec<u64>, fill: impl FnOnce(&mut IdSet) -> R) -> R {
    let mut set = IdSet::from(SCRATCH.with_borrow_mut(|scratch| std::mem::take(&mut scratch.set)));
    let result = fill(&mut set);
    if set.bitmap_lo.is_none() {
        std::mem::swap(out, &mut set.buf);
    } else {
        union(std::slice::from_ref(&set), out);
    }
    SCRATCH.with_borrow_mut(|scratch| scratch.set = set.into_buffer());
    result
}

/// How [`union`] combines its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fanin {
    /// No part holds an id.
    Empty,
    /// Only the part at this index holds ids.
    Only(usize),
    /// The union's span, `words` words from `lo`, is dense enough for
    /// one bitmap.
    Bitmap { lo: u64, words: usize },
    /// Too sparse for a bitmap: the parts hold `total` ids between them.
    Merge { total: usize },
}

/// Chooses how to combine `parts`: by the density of their union, as
/// [`form`] chooses for one list, counting every part's ids (duplicates
/// across parts included) against the words from the lowest first word
/// to the highest last word.
fn fanin<P: AsRef<IdSet>>(parts: &[P]) -> Fanin {
    let mut present = parts
        .iter()
        .map(AsRef::as_ref)
        .enumerate()
        .filter(|(_, part)| !part.is_empty());
    let Some((first, part)) = present.next() else {
        return Fanin::Empty;
    };
    let (mut total, mut lo, mut last) = (part.len, part.first_word(), part.last_word());
    let mut only = true;
    for (_, part) in present {
        only = false;
        total += part.len;
        lo = lo.min(part.first_word());
        last = last.max(part.last_word());
    }
    if only {
        return Fanin::Only(first);
    }
    let words = (last - lo) / 64 + 1;
    if words <= total as u64 / DENSE_IDS_PER_WORD {
        Fanin::Bitmap {
            lo,
            words: words as usize,
        }
    } else {
        Fanin::Merge { total }
    }
}

/// Writes the union of `parts` into `out` (cleared first) as one
/// sorted, deduplicated list: the one fan-in of finished answers.
/// Duplicates across parts collapse, as in [`merge_sorted_ids`].
///
/// The union's density chooses the way, as [`finish_ids`]' does for one
/// list. When the span from the lowest part's first word to the highest
/// part's last needs at most one word per `DENSE_IDS_PER_WORD` ids, the
/// bitmap parts are ORed word for word into one scratch bitmap, the ids
/// of any sorted parts set in it, and the bitmap unpacked once, straight
/// into `out` at its final length. Otherwise the bitmap parts are
/// unpacked into scratch and every part merged. A lone non-empty part is
/// copied or unpacked as it stands.
pub fn union<P: AsRef<IdSet>>(parts: &[P], out: &mut Vec<u64>) {
    out.clear();
    match fanin(parts) {
        Fanin::Empty => {}
        Fanin::Only(i) => parts[i].as_ref().write_to(out),
        Fanin::Bitmap { lo, words } => SCRATCH.with_borrow_mut(|scratch| {
            or_parts(parts, lo, words, &mut scratch.bits);
            unpack(&scratch.bits, lo, ones(&scratch.bits), out);
        }),
        Fanin::Merge { total } => merge_parts(parts, total, out),
    }
}

/// [`union`] into a set (refilled): the same choice and the same work,
/// but a union dense enough for one bitmap is left as that bitmap, and a
/// lone part is copied in its own form.
pub fn union_set<P: AsRef<IdSet>>(parts: &[P], set: &mut IdSet) {
    match fanin(parts) {
        Fanin::Empty => set.fill_sorted(|_| {}),
        Fanin::Only(i) => {
            let part = parts[i].as_ref();
            set.buf.clone_from(&part.buf);
            (set.bitmap_lo, set.len) = (part.bitmap_lo, part.len);
        }
        Fanin::Bitmap { lo, words } => {
            or_parts(parts, lo, words, &mut set.buf);
            set.bitmap_lo = Some(lo);
            set.len = ones(&set.buf);
        }
        Fanin::Merge { total } => set.fill_sorted(|ids| merge_parts(parts, total, ids)),
    }
}

/// Sets `bits` (cleared, `words` long, bit `i` of word `w` standing for
/// `lo + 64 w + i`) to the union of `parts`: bitmap parts ORed word for
/// word, the bits of sorted parts set one by one.
fn or_parts<P: AsRef<IdSet>>(parts: &[P], lo: u64, words: usize, bits: &mut Vec<u64>) {
    bits.clear();
    bits.resize(words, 0);
    for part in parts.iter().map(AsRef::as_ref) {
        match part.bitmap_lo {
            Some(start) => {
                let at = ((start - lo) / 64) as usize;
                for (dst, &word) in bits[at..at + part.buf.len()].iter_mut().zip(&part.buf) {
                    *dst |= word;
                }
            }
            None => mark(&part.buf, lo, bits),
        }
    }
}

/// Merges `parts`, holding `total` ids between them, into `out`: the
/// bitmap parts are unpacked into scratch first.
fn merge_parts<P: AsRef<IdSet>>(parts: &[P], total: usize, out: &mut Vec<u64>) {
    let mut unpacked = SCRATCH.with_borrow_mut(|scratch| std::mem::take(&mut scratch.unpacked));
    unpacked.clear();
    for part in parts.iter().map(AsRef::as_ref) {
        if let Some(lo) = part.bitmap_lo {
            for_each_set_bit(&part.buf, lo, |id| unpacked.push(id));
        }
    }
    // Bitmap part `i` lies in `unpacked` after the ids of the bitmap
    // parts before it.
    let unpacked_before = |i: usize| -> usize {
        parts[..i]
            .iter()
            .map(AsRef::as_ref)
            .filter(|part| part.bitmap_lo.is_some())
            .map(IdSet::len)
            .sum()
    };
    out.reserve_exact(total);
    merge_lists(
        parts.len(),
        |i| match parts[i].as_ref() {
            IdSet {
                bitmap_lo: Some(_),
                len,
                ..
            } => &unpacked[unpacked_before(i)..][..*len],
            IdSet { buf, .. } => buf,
        },
        out,
    );
    SCRATCH.with_borrow_mut(|scratch| scratch.unpacked = unpacked);
}

/// The number of set bits in `bits`.
fn ones(bits: &[u64]) -> usize {
    bits.iter().map(|word| word.count_ones() as usize).sum()
}

/// Sorts and deduplicates `ids` in place, in the form [`form`] chose.
fn finish_in_place(ids: &mut Vec<u64>, form: Form) {
    match form {
        Form::Comparison => sort_dedup(ids),
        Form::Bitmap { lo, words } => SCRATCH.with_borrow_mut(|scratch| {
            set_bits(ids, lo, words, &mut scratch.bits);
            // At most one id per input id comes back out, so the writes
            // trail the list's own length.
            let (slots, mut n) = (&mut ids[..], 0);
            for_each_set_bit(&scratch.bits, lo, |id| {
                slots[n] = id;
                n += 1;
            });
            ids.truncate(n);
        }),
        Form::Radix { varying } => {
            SCRATCH.with_borrow_mut(|scratch| radix_sort(ids, varying, &mut scratch.ids));
            ids.dedup();
        }
    }
}

/// Sets `bits` (cleared, `words` long) to the presence bitmap of `ids`,
/// which all lie in `lo..lo + 64 words`: one bit per id, duplicates
/// collapsing.
fn set_bits(ids: &[u64], lo: u64, words: usize, bits: &mut Vec<u64>) {
    bits.clear();
    bits.resize(words, 0);
    mark(ids, lo, bits);
}

/// Sets the bit of every id of `ids` in `bits`, whose bit `i` of word
/// `w` stands for `lo + 64 w + i`.
fn mark(ids: &[u64], lo: u64, bits: &mut [u64]) {
    for &id in ids {
        let offset = id - lo;
        bits[(offset / 64) as usize] |= 1 << (offset % 64);
    }
}

/// Hands `emit` the id of every set bit of `bits` (bit `i` of word `w`
/// standing for `lo + 64 w + i`), in ascending order.
fn for_each_set_bit(bits: &[u64], lo: u64, mut emit: impl FnMut(u64)) {
    let mut base = lo;
    for &word in bits {
        let mut word = word;
        while word != 0 {
            emit(base + u64::from(word.trailing_zeros()));
            word &= word - 1;
        }
        base = base.wrapping_add(64);
    }
}

/// Appends to `out` the `count` ids whose bits are set in `bits` (bit
/// `i` of word `w` standing for `lo + 64 w + i`), in ascending order,
/// growing `out` by exactly `count`, eight slots a word: slot `k` takes
/// the word's `k`-th lowest set bit whether or not it exists, and `out`
/// is cut back to the word's popcount, so the slots past it are
/// overwritten by the next word — no branch per id. A word of more than
/// eight ids finishes in a loop, and the last words, where eight slots
/// would run past the answer, take the exact loop: `out` grows by
/// `count` and never past its room, so there is no slack to shrink away
/// afterwards.
///
/// A word costs the same eight writes however few ids it holds, so
/// against a per-id loop ([`for_each_set_bit`]) this wins on dense words
/// and loses on sparse ones. On 3125 words of ids picked at random (the
/// ledger's span; minimum of 200 samples on a 2-core VM) it took a flat
/// ≈ 19.5 µs from 2 to 6.4 ids a word, the per-id loop 10.3 µs at 2,
/// 14.7 at 4, 16.6 at 5 and 25.2 at 6.4: the two cross near 5.5. A
/// bitmap answer holds 2 ids a word at least (`DENSE_IDS_PER_WORD`); the
/// large mix's answers spread about evenly from there to twice their
/// mean of 6.4–6.7, where the eight slots save more above the crossing
/// than they lose below it. A density switch between the two would save
/// a few microseconds on a sparse answer, which no end-to-end run has
/// resolved, so there is none.
fn unpack(bits: &[u64], lo: u64, count: usize, out: &mut Vec<u64>) {
    out.reserve_exact(count);
    let end = out.len() + count;
    let mut base = lo;
    for &word in bits {
        let mut rest = word;
        let at = out.len();
        if at + 8 <= end {
            let mut eight = [0u64; 8];
            for slot in &mut eight {
                *slot = base.wrapping_add(u64::from(rest.trailing_zeros()));
                rest &= rest.wrapping_sub(1);
            }
            out.extend_from_slice(&eight);
            out.truncate(at + (word.count_ones() as usize).min(8));
        }
        // The ids past the eighth, or the whole word near the end.
        while rest != 0 {
            out.push(base + u64::from(rest.trailing_zeros()));
            rest &= rest - 1;
        }
        base = base.wrapping_add(64);
    }
    debug_assert_eq!(out.len(), end, "count is the bitmap's popcount");
}

/// LSD radix sort, one counting pass per byte position set in
/// `varying` (the OR of every id's XOR with the first).
fn radix_sort(ids: &mut Vec<u64>, varying: u64, scratch: &mut Vec<u64>) {
    let mut shifts = [0u32; 8];
    let mut bytes = 0usize;
    for shift in (0..u64::BITS).step_by(8) {
        if (varying >> shift) & 0xff != 0 {
            shifts[bytes] = shift;
            bytes += 1;
        }
    }
    let shifts = &shifts[..bytes];
    // One read of the list fills the histogram of every varying byte.
    let mut counts = [[0usize; 256]; 8];
    let counts = &mut counts[..bytes];
    for &id in ids.iter() {
        for (count, &shift) in counts.iter_mut().zip(shifts) {
            count[usize::from((id >> shift) as u8)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(ids.len(), 0);
    for (count, &shift) in counts.iter_mut().zip(shifts) {
        // Counts become each bucket's next write position.
        let mut at = 0usize;
        for c in count.iter_mut() {
            at += std::mem::replace(c, at);
        }
        for &id in ids.iter() {
            let slot = &mut count[usize::from((id >> shift) as u8)];
            scratch[*slot] = id;
            *slot += 1;
        }
        std::mem::swap(ids, scratch);
    }
}

/// Merges sorted, deduplicated id lists into `out` (cleared first) as
/// one sorted, deduplicated list. Duplicates *across* lists are
/// collapsed (shard functions partition objects, so lists are normally
/// disjoint — but the merge does not rely on it). The lists are only
/// borrowed: callers lend their legs' buffers and keep them for reuse.
pub fn merge_sorted_ids<L: AsRef<[u64]>>(lists: &[L], out: &mut Vec<u64>) {
    merge_lists(lists.len(), |i| lists[i].as_ref(), out);
}

/// [`merge_sorted_ids`] over the `k` lists `list(0..k)`.
fn merge_lists<'a>(k: usize, list: impl Fn(usize) -> &'a [u64], out: &mut Vec<u64>) {
    out.clear();
    match k {
        0 => {}
        1 => out.extend_from_slice(list(0)),
        2 => merge_two(list(0), list(1), out),
        _ => SCRATCH.with_borrow_mut(|scratch| merge_many(k, list, out, scratch)),
    }
}

/// Tournament of two-way merges, O(R log k): round one pairs the input
/// lists up into `out`, later rounds pair the runs of one buffer up
/// into the other, and the two buffers swap roles (and finally, if need
/// be, places) — no per-round allocation.
fn merge_many<'a>(
    k: usize,
    list: impl Fn(usize) -> &'a [u64],
    out: &mut Vec<u64>,
    scratch: &mut Scratch,
) {
    let Scratch {
        ids: other, ends, ..
    } = scratch;
    ends.clear();
    for pair in (0..k).step_by(2) {
        if pair + 1 < k {
            merge_two(list(pair), list(pair + 1), out);
        } else {
            out.extend_from_slice(list(pair));
        }
        ends.push(out.len());
    }
    while ends.len() > 1 {
        other.clear();
        let mut start = 0usize;
        let mut merged_runs = 0usize;
        for pair in 0..ends.len().div_ceil(2) {
            let mid = ends[2 * pair];
            let end = ends.get(2 * pair + 1).copied().unwrap_or(mid);
            merge_two(&out[start..mid], &out[mid..end], other);
            start = end;
            ends[merged_runs] = other.len();
            merged_runs += 1;
        }
        ends.truncate(merged_runs);
        std::mem::swap(out, other);
    }
}

/// Appends the merge of two sorted, deduplicated lists to `out`,
/// collapsing cross-list duplicates.
///
/// A step has no data-dependent branch: it writes the smaller head and
/// advances each cursor by a comparison result, so equal heads advance
/// both and are written once. That leaves the load → compare → advance
/// chain as the bottleneck, so the main loop runs two independent
/// chains — one merging up from the fronts, one merging down from the
/// backs into the far end of the reserved space — until either list is
/// down to one unread id; a front-only loop finishes, and the back part
/// slides down over whatever gap the collapsed duplicates left.
fn merge_two(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let base = out.len();
    let room = a.len() + b.len();
    out.resize(base + room, 0);
    let dst = &mut out[base..];
    // Unread ids are a[i..ie] and b[j..je]; dst[..n] and dst[m..] are written.
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    let (mut ie, mut je, mut m) = (a.len(), b.len(), room);
    while ie - i >= 2 && je - j >= 2 {
        let (x, y) = (a[i], b[j]);
        dst[n] = x.min(y);
        n += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        let (p, q) = (a[ie - 1], b[je - 1]);
        m -= 1;
        dst[m] = p.max(q);
        ie -= usize::from(p >= q);
        je -= usize::from(q >= p);
    }
    while i < ie && j < je {
        let (x, y) = (a[i], b[j]);
        dst[n] = x.min(y);
        n += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    for rest in [&a[i..ie], &b[j..je]] {
        dst[n..n + rest.len()].copy_from_slice(rest);
        n += rest.len();
    }
    dst.copy_within(m.., n);
    out.truncate(base + n + room - m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle(mut ids: Vec<u64>) -> Vec<u64> {
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn finished(mut ids: Vec<u64>) -> Vec<u64> {
        finish_ids(&mut ids);
        ids
    }

    fn merged(lists: &[Vec<u64>]) -> Vec<u64> {
        let mut out = vec![99; 3]; // stale contents must not survive
        merge_sorted_ids(lists, &mut out);
        out
    }

    /// `ids` (sorted, distinct) as a set in sorted form.
    fn sorted_set(ids: &[u64]) -> IdSet {
        let mut set = IdSet::new();
        set.fill_sorted(|buf| buf.extend_from_slice(ids));
        set
    }

    /// `ids` (sorted, distinct) as a set in bitmap form, however sparse.
    fn bitmap_set(ids: &[u64]) -> IdSet {
        let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
            return IdSet::new();
        };
        let lo = first & !63;
        let mut buf = Vec::new();
        set_bits(ids, lo, ((last - lo) / 64 + 1) as usize, &mut buf);
        IdSet {
            buf,
            bitmap_lo: Some(lo),
            len: ids.len(),
        }
    }

    fn unioned(parts: &[IdSet]) -> Vec<u64> {
        let mut out = vec![99; 3]; // stale contents must not survive
        union(parts, &mut out);
        out
    }

    /// Deterministic ids confined to the bytes selected by `mask`.
    fn pseudo_random(n: usize, mask: u64, seed: u64) -> Vec<u64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (z >> 7 ^ z << 19) & mask
            })
            .collect()
    }

    #[test]
    fn finish_ids_matches_sort_dedup_around_the_cutoff_and_at_50k() {
        for n in [
            0,
            1,
            RADIX_MIN_LEN - 1,
            RADIX_MIN_LEN,
            RADIX_MIN_LEN + 1,
            50_000,
        ] {
            for (mask, what) in [
                (0xff, "one byte"),
                (0x3_ffff, "dense ids"),
                (0xff00_0000_00ff_0000, "two far-apart bytes"),
                (u64::MAX, "all eight bytes"),
            ] {
                let ids = pseudo_random(n, mask, n as u64 + 1);
                assert_eq!(finished(ids.clone()), oracle(ids), "n={n}, {what}");
            }
        }
        // 50k ids over 2^18 values are 12 a word; over all of u64, 2^-40.
        assert!(matches!(
            form(&pseudo_random(50_000, 0x3_ffff, 50_001)),
            Form::Bitmap { words: 4096, .. }
        ));
        assert!(matches!(
            form(&pseudo_random(50_000, u64::MAX, 50_001)),
            Form::Radix { .. }
        ));
    }

    /// `len` ids in `base..=base + span` (both ends present), the rest
    /// pseudo-random inside, in a shuffled order.
    fn window(len: usize, base: u64, span: u64, seed: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = pseudo_random(len - 2, u64::MAX, seed)
            .into_iter()
            .map(|r| base + r % (span + 1))
            .collect();
        ids.insert(ids.len() / 3, base + span);
        ids.insert(ids.len() / 2, base);
        ids
    }

    #[test]
    fn finish_ids_switches_to_the_bitmap_at_two_ids_per_word() {
        for words in [129u64, 200, 1_000] {
            // Spans from the smallest to the largest that need `words`.
            for span in [64 * (words - 1), 64 * words - 1] {
                for base in [0, 0x1234_5678_9abc_def0, u64::MAX - span] {
                    for (len, dense) in [
                        (2 * words - 1, false),
                        (2 * words, true),
                        (2 * words + 1, true),
                    ] {
                        let ids = window(len as usize, base, span, words + len);
                        let bitmap = match form(&ids) {
                            Form::Bitmap { lo, words: w } => {
                                assert_eq!((lo, w as u64), (base, words));
                                true
                            }
                            Form::Radix { .. } => false,
                            Form::Comparison => panic!("{len} ids are past RADIX_MIN_LEN"),
                        };
                        assert_eq!(bitmap, dense, "words={words} span={span} len={len}");
                        assert_eq!(
                            finished(ids.clone()),
                            oracle(ids),
                            "words={words} span={span} base={base} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn finish_ids_handles_extremes_and_degenerate_orders() {
        let n = RADIX_MIN_LEN * 3;
        let mut extremes = pseudo_random(n, u64::MAX, 5);
        extremes.extend([0, u64::MAX, 0, u64::MAX]);
        assert_eq!(finished(extremes.clone()), oracle(extremes));

        for id in [0, 7, u64::MAX] {
            // lo == hi: the bitmap form in one word.
            assert_eq!(form(&vec![id; n]), Form::Bitmap { lo: id, words: 1 });
            assert_eq!(finished(vec![id; n]), vec![id]);
        }
        // A bitmap whose last word ends exactly at u64::MAX, every value
        // present twice.
        let top: Vec<u64> = (0..n as u64 / 2).map(|i| u64::MAX - i).collect();
        let mut twice = top.clone();
        twice.extend(top.iter().rev());
        assert_eq!(finished(twice), oracle(top));

        let sorted: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        assert_eq!(finished(sorted.clone()), sorted);
        let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
        assert_eq!(finished(reversed), sorted);

        let mut doubled = sorted.clone();
        doubled.extend_from_slice(&sorted);
        assert_eq!(finished(doubled), sorted);
    }

    #[test]
    fn assemble_finishes_like_finish_ids_and_writes_the_answer_once() {
        // One list per form: comparison, bitmap (dense), radix (wide).
        for (n, mask) in [(100, 0x3_ffff), (50_000, 0x3_ffff), (5_000, u64::MAX)] {
            let mut ids = pseudo_random(n, mask, 7);
            ids.extend_from_slice(&ids.clone()); // every id twice
            let mut fresh = Vec::new();
            assemble(&mut fresh, |c| c.extend_from_slice(&ids));
            assert_eq!(fresh, oracle(ids.clone()), "n={n}");
            assert_eq!(fresh.capacity(), fresh.len(), "n={n}: no slack");
            // A donated buffer is cleared and keeps its allocation.
            let mut donated = Vec::with_capacity(4 * n);
            donated.extend([u64::MAX; 3]);
            assemble(&mut donated, |c| c.extend_from_slice(&ids));
            assert_eq!(donated, fresh, "n={n}");
            assert_eq!(donated.capacity(), 4 * n, "n={n}");
        }
        let mut empty = vec![1, 2, 3];
        assemble(&mut empty, |_| {});
        assert!(empty.is_empty());
    }

    #[test]
    fn assemble_lends_a_nested_call_a_buffer_of_its_own() {
        let (mut outer, mut inner) = (Vec::new(), Vec::new());
        assemble(&mut outer, |c| {
            c.extend([9, 3, 9]);
            assemble(&mut inner, |d| {
                assert!(d.is_empty(), "the outer call holds the thread's buffer");
                d.extend([5, 1, 5]);
            });
            c.extend_from_slice(&inner);
        });
        assert_eq!((outer, inner), (vec![1, 3, 5, 9], vec![1, 5]));
    }

    #[test]
    fn assemble_set_keeps_a_dense_answer_packed() {
        for (n, mask, packed) in [
            (100, 0x3_ffff, false),
            (50_000, 0x3_ffff, true),
            (5_000, u64::MAX, false),
        ] {
            let mut ids = pseudo_random(n, mask, 7);
            ids.extend_from_slice(&ids.clone());
            let mut set = IdSet::from(vec![5; 4]);
            assemble_set(&mut set, |c| c.extend_from_slice(&ids));
            assert_eq!(set.bitmap_lo.is_some(), packed, "n={n}");
            let want = oracle(ids);
            assert_eq!(set.len(), want.len(), "n={n}");
            assert_eq!(unioned(&[set]), want, "n={n}");
        }
        // The bitmap's words start at a multiple of 64 and may reach one
        // word past the unaligned span; both ends of u64 included.
        for lo in [0, 63, 64, 1_000_001, u64::MAX - 600] {
            let ids: Vec<u64> = (0..=600).map(|i| lo + i).collect();
            let mut set = IdSet::new();
            assemble_set(&mut set, |c| c.extend(ids.iter().rev()));
            assert_eq!(set.bitmap_lo, Some(lo & !63), "lo={lo}");
            assert_ne!(set.buf.first(), Some(&0), "lo={lo}");
            assert_ne!(set.buf.last(), Some(&0), "lo={lo}");
            assert_eq!(unioned(&[set]), ids, "lo={lo}");
        }
        let mut set = IdSet::from(vec![1, 2, 3]);
        assemble_set(&mut set, |_| {});
        assert!(set.is_empty() && set.bitmap_lo.is_none());
        assert!(unioned(&[set]).is_empty());
    }

    #[test]
    fn unpack_writes_every_popcount_in_both_paths() {
        let spread = |ones: u32| -> u64 {
            // `ones` bits spread over the word, not bunched at one end.
            (0..64u32)
                .filter(|bit| bit * ones / 64 != (bit + 1) * ones / 64)
                .fold(0, |word, bit| word | 1 << bit)
        };
        for ones in 0..=64u32 {
            let low = u64::MAX.checked_shr(64 - ones).unwrap_or(0);
            for word in [low, low.reverse_bits(), spread(ones)] {
                assert_eq!(word.count_ones(), ones);
                // Mid-bitmap (eight slots; the loop past eight), last word
                // (the exact tail below eight ids), and ahead of a last
                // word of 0–7 ids (the tail reaching back into it).
                for bits in [
                    vec![u64::MAX, word, u64::MAX, u64::MAX],
                    vec![u64::MAX, u64::MAX, word],
                    vec![u64::MAX, word, 0b101],
                    vec![u64::MAX, word, 0b111_1111],
                    vec![word],
                    vec![0, word, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ] {
                    for lo in [
                        0,
                        0x1234_5678_9abc_de00,
                        u64::MAX - (64 * bits.len() as u64 - 1),
                    ] {
                        let mut want = Vec::new();
                        for_each_set_bit(&bits, lo, |id| want.push(id));
                        let mut fresh = Vec::new();
                        unpack(&bits, lo, want.len(), &mut fresh);
                        assert_eq!(fresh, want, "word={word:#x} bits={bits:x?} lo={lo}");
                        assert_eq!(fresh.capacity(), fresh.len(), "no slack past the answer");
                        // Appending after what `out` already holds.
                        let mut appended = Vec::with_capacity(want.len() + 1);
                        appended.push(7);
                        unpack(&bits, lo, want.len(), &mut appended);
                        assert_eq!(
                            appended[1..],
                            want[..],
                            "word={word:#x} bits={bits:x?} lo={lo}"
                        );
                        assert_eq!((appended[0], appended.capacity()), (7, want.len() + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn union_switches_to_the_bitmap_at_two_ids_per_word() {
        for words in [129u64, 200, 1_000] {
            // Spans from the smallest to the largest that need `words`.
            for span in [64 * (words - 1), 64 * words - 1] {
                for base in [0, 0x1234_5678_9abc_de00, u64::MAX - (64 * words - 1)] {
                    for (len, dense) in [
                        (2 * words - 1, false),
                        (2 * words, true),
                        (2 * words + 1, true),
                    ] {
                        // `len` distinct ids, both ends of the span among them.
                        let mut ids = std::collections::BTreeSet::from([base, base + span]);
                        let mut r =
                            pseudo_random(4 * len as usize, u64::MAX, words + len).into_iter();
                        while ids.len() < len as usize {
                            ids.insert(base + r.next().expect("enough draws") % (span + 1));
                        }
                        let ids: Vec<u64> = ids.into_iter().collect();
                        // Every other id to each of a sorted and a bitmap part.
                        let (even, odd): (Vec<u64>, Vec<u64>) =
                            ids.iter().partition(|&&id| id % 2 == 0);
                        let parts = [sorted_set(&even), bitmap_set(&odd)];
                        let bitmap = match fanin(&parts) {
                            Fanin::Bitmap { lo, words: w } => {
                                assert_eq!((lo, w as u64), (base, words));
                                true
                            }
                            Fanin::Merge { total } => {
                                assert_eq!(total as u64, len);
                                false
                            }
                            other => panic!("two non-empty parts, got {other:?}"),
                        };
                        assert_eq!(bitmap, dense, "words={words} span={span} len={len}");
                        assert_eq!(
                            unioned(&parts),
                            ids,
                            "words={words} span={span} base={base} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_writes_a_lone_part_as_it_stands() {
        let ids: Vec<u64> = (0..5_000).map(|i| 3 * i + 1).collect();
        for part in [sorted_set(&ids), bitmap_set(&ids)] {
            for parts in [
                vec![part.clone()],
                vec![IdSet::new(), part.clone(), IdSet::new()],
            ] {
                assert!(matches!(fanin(&parts), Fanin::Only(_)));
                let mut fresh = Vec::new();
                union(&parts, &mut fresh);
                assert_eq!(fresh, ids);
                assert_eq!(fresh.capacity(), fresh.len());
            }
        }
        assert_eq!(fanin::<IdSet>(&[]), Fanin::Empty);
        assert!(unioned(&[IdSet::new(), IdSet::new()]).is_empty());
    }

    #[test]
    fn unpack_with_hands_a_sorted_answer_over_and_unpacks_a_bitmap() {
        let (sparse, dense): (Vec<u64>, Vec<u64>) =
            ((0..40).map(|i| 1000 * i).collect(), (0..900).collect());
        // A sorted answer: the set's own buffer becomes `out`, and the
        // buffer `out` held becomes the thread's next set.
        let mut out = Vec::with_capacity(4096);
        out.extend([7, 7, 7]);
        let donated = out.as_ptr();
        let mut lent = std::ptr::null();
        unpack_with(&mut out, |set| {
            set.fill_sorted(|ids| ids.extend_from_slice(&sparse));
            lent = set.buf.as_ptr();
        });
        assert_eq!((&out, out.as_ptr()), (&sparse, lent));
        unpack_with(&mut out, |set| {
            assert_eq!(
                (set.buf.as_ptr(), set.buf.capacity(), set.len()),
                (donated, 4096, 0)
            );
            assemble_set(set, |c| c.extend(dense.iter().rev()));
            assert!(set.bitmap_lo.is_some());
        });
        assert_eq!(out, dense);
        // A bitmap answer into a fresh `Vec` is written at its length.
        let mut fresh = Vec::new();
        unpack_with(&mut fresh, |set| {
            assemble_set(set, |c| c.extend_from_slice(&dense))
        });
        assert_eq!((&fresh, fresh.capacity()), (&dense, dense.len()));
    }

    #[test]
    fn merge_matches_concat_sort_dedup_for_every_list_count() {
        for k in [0usize, 1, 2, 3, 8] {
            for overlap in [false, true] {
                // Deal 0..600 round-robin-ish into k lists; with overlap
                // every third id also lands in a second list.
                let mut lists = vec![Vec::new(); k];
                for (step, id) in pseudo_random(600, 0xffff, k as u64).into_iter().enumerate() {
                    if k == 0 {
                        break;
                    }
                    lists[step % k].push(id);
                    if overlap && step % 3 == 0 {
                        lists[(step / 3) % k].push(id);
                    }
                }
                for list in &mut lists {
                    sort_dedup(list);
                }
                let want = oracle(lists.concat());
                assert_eq!(merged(&lists), want, "k={k}, overlap={overlap}");
                // An empty list in any position changes nothing.
                for at in 0..=k {
                    let mut with_empty = lists.clone();
                    with_empty.insert(at, Vec::new());
                    assert_eq!(merged(&with_empty), want, "k={k}, empty at {at}");
                }
            }
        }
    }

    #[test]
    fn merge_of_two_is_exact_on_every_pair_of_subsets_of_six_ids() {
        // Exhaustive over the shapes the two-ended loop can meet: empty,
        // single-id, identical, nested and interleaved lists.
        let subset = |bits: u32| (0..6u64).filter(|i| bits >> i & 1 == 1).collect::<Vec<_>>();
        for a in 0..64 {
            for b in 0..64 {
                assert_eq!(
                    merged(&[subset(a), subset(b)]),
                    subset(a | b),
                    "{a:b} {b:b}"
                );
            }
        }
    }

    #[test]
    fn merge_borrows_slices_as_well_as_vecs() {
        let (a, b) = ([1u64, 4, 9], [2u64, 4]);
        let mut out = Vec::new();
        merge_sorted_ids(&[&a[..], &b[..]], &mut out);
        assert_eq!(out, vec![1, 2, 4, 9]);
    }

    proptest! {
        #[test]
        fn finish_ids_is_sort_dedup(
            ids in prop::collection::vec(any::<u64>(), 0..1500),
            shift in 0u32..64,
        ) {
            // Shifting right squeezes the ids into fewer varying bytes
            // and makes duplicates likely.
            let ids: Vec<u64> = ids.into_iter().map(|id| id >> shift).collect();
            prop_assert_eq!(finished(ids.clone()), oracle(ids));
        }

        #[test]
        fn finish_ids_is_sort_dedup_on_dense_windows(
            offsets in prop::collection::vec(any::<u64>(), 0..1500),
            base in any::<u64>(),
            at_top in any::<bool>(),
            span in 0u64..4096,
        ) {
            // Small offsets from one base: the bitmap form from
            // RADIX_MIN_LEN ids up, anywhere in u64, up to its last value.
            let base = if at_top { u64::MAX - span } else { base.min(u64::MAX - span) };
            let ids: Vec<u64> = offsets.into_iter().map(|r| base + r % (span + 1)).collect();
            prop_assert_eq!(finished(ids.clone()), oracle(ids));
        }

        #[test]
        fn union_is_concat_sort_dedup(
            parts in prop::collection::vec(
                (any::<bool>(), 0u8..4, prop::collection::vec(any::<u64>(), 0..600)),
                0..9,
            ),
            base in any::<u64>(),
            at in 0u8..3,
            span in 0u64..5000,
        ) {
            // Every part draws from one window — at 0, anywhere, or
            // ending at u64::MAX — so parts overlap; one in four moves to
            // the far half of u64, which makes the union sparse.
            let base = match at {
                0 => 0,
                1 => base.min(u64::MAX - span),
                _ => u64::MAX - span,
            };
            let lists: Vec<(bool, Vec<u64>)> = parts
                .into_iter()
                .map(|(bitmap, far, offsets)| {
                    let ids = offsets
                        .into_iter()
                        .map(|r| (base + r % (span + 1)) ^ (u64::from(far == 0) << 63));
                    (bitmap, oracle(ids.collect()))
                })
                .collect();
            let parts: Vec<IdSet> = lists
                .iter()
                .map(|(bitmap, ids)| if *bitmap { bitmap_set(ids) } else { sorted_set(ids) })
                .collect();
            let want = oracle(lists.into_iter().flat_map(|(_, ids)| ids).collect());
            prop_assert_eq!(unioned(&parts), want.clone());
            // Into a set: packed exactly when the union is a bitmap (or
            // its one part is), with the bitmap's invariants.
            let packed = match fanin(&parts) {
                Fanin::Bitmap { .. } => true,
                Fanin::Only(i) => parts[i].bitmap_lo.is_some(),
                Fanin::Empty | Fanin::Merge { .. } => false,
            };
            let mut set = bitmap_set(&(0..300).collect::<Vec<u64>>()); // stale
            union_set(&parts, &mut set);
            prop_assert_eq!((set.bitmap_lo.is_some(), set.len()), (packed, want.len()));
            if let Some(lo) = set.bitmap_lo {
                prop_assert_eq!(lo % 64, 0);
                prop_assert!(set.buf[0] != 0 && set.buf[set.buf.len() - 1] != 0);
            }
            prop_assert_eq!(unioned(&[set]), want);
        }

        #[test]
        fn merge_is_concat_sort_dedup(
            lists in prop::collection::vec(prop::collection::vec(0u64..2000, 0..300), 0..9),
        ) {
            let lists: Vec<Vec<u64>> = lists.into_iter().map(oracle).collect();
            prop_assert_eq!(merged(&lists), oracle(lists.concat()));
        }
    }
}
