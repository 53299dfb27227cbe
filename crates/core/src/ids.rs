//! The id-assembly kernel: the one place an answer's ids are sorted,
//! deduplicated and merged.
//!
//! Every index method ends a query with "sort the collected ids, drop
//! duplicates" (the [`Index1D`](crate::Index1D) postcondition), and every
//! fan-out surface — the sharded facade's legs, the velocity-partitioned
//! method's bands — then merges lists that already meet it. On a large
//! answer those two steps, not the tree walk, dominate the CPU bill, so
//! they live here once:
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
//! All three borrow one per-thread scratch, so a steady-state read
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
    /// for id `lo + 64 w + i`.
    bits: Vec<u64>,
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
/// varying bytes together.
fn form(ids: &[u64]) -> Form {
    let Some(&first) = ids.first().filter(|_| ids.len() >= RADIX_MIN_LEN) else {
        return Form::Comparison;
    };
    let (mut lo, mut hi, mut varying) = (first, first, 0);
    for &id in ids {
        lo = lo.min(id);
        hi = hi.max(id);
        varying |= id ^ first;
    }
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

/// Builds one answer into `out` (cleared first): `collect` pushes the
/// candidate ids into the buffer it is lent (empty, in any order, with
/// duplicates), then the ids are sorted and deduplicated as
/// [`finish_ids`] does and written to `out` once, at their final length,
/// so an `out` without capacity ends with `capacity() == len()`. The
/// bitmap form writes the answer from its bits straight into `out`,
/// sized by one popcount pass over the words; the other two forms finish
/// in the candidate buffer, which is then copied.
///
/// The buffer is taken out of the thread's scratch for the call, so a
/// `collect` that assembles an answer of its own (a per-route search
/// inside the route network's query) is lent a buffer of its own.
pub fn assemble(out: &mut Vec<u64>, collect: impl FnOnce(&mut Vec<u64>)) {
    let mut candidates = SCRATCH.with_borrow_mut(|scratch| std::mem::take(&mut scratch.candidates));
    candidates.clear();
    collect(&mut candidates);
    out.clear();
    match form(&candidates) {
        Form::Bitmap { lo, words } => SCRATCH.with_borrow_mut(|scratch| {
            set_bits(&candidates, lo, words, &mut scratch.bits);
            out.reserve_exact(scratch.bits.iter().map(|w| w.count_ones() as usize).sum());
            for_each_set_bit(&scratch.bits, lo, |id| out.push(id));
        }),
        form => {
            finish_in_place(&mut candidates, form);
            out.reserve_exact(candidates.len());
            out.extend_from_slice(&candidates);
        }
    }
    SCRATCH.with_borrow_mut(|scratch| scratch.candidates = candidates);
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
    out.clear();
    match lists {
        [] => {}
        [only] => out.extend_from_slice(only.as_ref()),
        [a, b] => merge_two(a.as_ref(), b.as_ref(), out),
        _ => SCRATCH.with_borrow_mut(|scratch| merge_many(lists, out, scratch)),
    }
}

/// Tournament of two-way merges, O(R log k): round one pairs the input
/// lists up into `out`, later rounds pair the runs of one buffer up
/// into the other, and the two buffers swap roles (and finally, if need
/// be, places) — no per-round allocation.
fn merge_many<L: AsRef<[u64]>>(lists: &[L], out: &mut Vec<u64>, scratch: &mut Scratch) {
    let Scratch {
        ids: other, ends, ..
    } = scratch;
    ends.clear();
    for pair in lists.chunks(2) {
        match pair {
            [a, b] => merge_two(a.as_ref(), b.as_ref(), out),
            [a] => out.extend_from_slice(a.as_ref()),
            _ => unreachable!("chunks(2)"),
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
        fn merge_is_concat_sort_dedup(
            lists in prop::collection::vec(prop::collection::vec(0u64..2000, 0..300), 0..9),
        ) {
            let lists: Vec<Vec<u64>> = lists.into_iter().map(oracle).collect();
            prop_assert_eq!(merged(&lists), oracle(lists.concat()));
        }
    }
}
