//! The tree's one in-page search: every lookup in a page's sorted
//! entries or separators — leaf and branch, read and write path — goes
//! through [`page_search`].

use crate::Key;

/// The partition point of `entries` under the monotone predicate
/// `below` (true on a prefix, false after it): exactly
/// `entries.partition_point(below)`, found by interpolation.
///
/// `key` is the key `below` compares against. Its [`Key::position`],
/// set against the positions of the slice's first and last keys, gives
/// the first probe; from there the search gallops outward, doubling its
/// step, until the answer is bracketed, and finishes with a binary
/// search inside the bracket. On near-uniform keys — the dual
/// `b`-coordinates within one leaf — the first probe lands within a few
/// entries of the answer, so a cold page costs about three dependent
/// cache misses instead of a binary search's `log₂ n`. On skewed keys
/// the worst case is about `2⌈log₂ n⌉` probes. When the end keys are
/// equal or the fraction is not finite the first probe is the middle.
///
/// The guess only decides where probing starts; the answer rests on
/// `below` alone, so it is exact for any key positions, duplicates
/// broken by value included.
pub(crate) fn page_search<K: Key, V>(
    entries: &[(K, V)],
    key: &K,
    mut below: impl FnMut(&(K, V)) -> bool,
) -> usize {
    let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
        return 0;
    };
    let top = entries.len() - 1;
    let (lo_pos, hi_pos) = (first.0.position(), last.0.position());
    let fraction = (key.position() - lo_pos) / (hi_pos - lo_pos);
    // The float-to-index cast saturates, and the clamp keeps the guess
    // on the slice even for a key outside the end keys.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let guess = if fraction.is_finite() {
        (fraction.clamp(0.0, 1.0) * top as f64) as usize
    } else {
        top / 2
    };
    // The answer lies in `lo..=hi`: `below` holds before `lo` and fails
    // from `hi` on.
    let (mut lo, mut hi) = (0, entries.len());
    let mut step = 1;
    if below(&entries[guess]) {
        lo = guess + 1;
        while let Some(probe) = guess.checked_add(step).filter(|&p| p < hi) {
            if below(&entries[probe]) {
                lo = probe + 1;
                step *= 2;
            } else {
                hi = probe;
                break;
            }
        }
    } else {
        hi = guess;
        while let Some(probe) = guess.checked_sub(step) {
            if below(&entries[probe]) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    lo + entries[lo..hi].partition_point(below)
}

#[cfg(test)]
mod tests {
    use super::page_search;
    use crate::{cmp_entry, cmp_key, Key};
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::fmt::Debug;

    /// Signed zeros, infinities, subnormals and the finite extremes.
    const F64_SPECIALS: [f64; 13] = [
        f64::NEG_INFINITY,
        f64::MIN,
        -1.0,
        -f64::MIN_POSITIVE,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        1.0,
        f64::MAX,
        f64::INFINITY,
    ];

    /// Uniform keys, all-equal keys, two tight clusters far apart, the
    /// specials alone, and uniform keys with specials sprinkled in.
    fn f64_keys() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            prop::collection::vec(-1e3f64..1e3, 0..=400),
            (-1e3f64..1e3, 0..=400usize).prop_map(|(k, n)| vec![k; n]),
            prop::collection::vec((any::<bool>(), 0.0f64..1e-6), 0..=400).prop_map(|v| {
                v.into_iter()
                    .map(|(far, d)| if far { 1e12 + d * 1e6 } else { d })
                    .collect()
            }),
            prop::collection::vec(0..F64_SPECIALS.len(), 0..=400)
                .prop_map(|ix| ix.into_iter().map(|i| F64_SPECIALS[i]).collect()),
            prop::collection::vec((0..F64_SPECIALS.len() * 4, -1e3f64..1e3), 0..=400).prop_map(
                |v| {
                    v.into_iter()
                        .map(|(i, k)| F64_SPECIALS.get(i).copied().unwrap_or(k))
                        .collect()
                }
            ),
        ]
    }

    /// Uniform keys, keys around 2⁵³ (where `position` stops telling
    /// neighbours apart), keys at `u64::MAX`, both ends at once, and
    /// all-equal keys.
    fn u64_keys() -> impl Strategy<Value = Vec<u64>> {
        const TWO_53: u64 = 1 << 53;
        prop_oneof![
            prop::collection::vec(any::<u64>(), 0..=400),
            prop::collection::vec(TWO_53 - 8..=TWO_53 + 8, 0..=400),
            prop::collection::vec(u64::MAX - 16..=u64::MAX, 0..=400),
            prop::collection::vec((any::<bool>(), 0u64..4), 0..=400).prop_map(|v| {
                v.into_iter()
                    .map(|(top, d)| if top { u64::MAX - d } else { d })
                    .collect()
            }),
            (any::<u64>(), 0..=400usize).prop_map(|(k, n)| vec![k; n]),
        ]
    }

    /// Uniform keys, a handful of distinct keys, both ends at once, and
    /// all-equal keys.
    fn u32_keys() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            prop::collection::vec(any::<u32>(), 0..=400),
            prop::collection::vec(0u32..8, 0..=400),
            prop::collection::vec((any::<bool>(), 0u32..4), 0..=400).prop_map(|v| {
                v.into_iter()
                    .map(|(top, d)| if top { u32::MAX - d } else { d })
                    .collect()
            }),
            (any::<u32>(), 0..=400usize).prop_map(|(k, n)| vec![k; n]),
        ]
    }

    /// A named predicate the search is checked under.
    type Shape<'a, T> = (&'static str, &'a dyn Fn(&T) -> bool);

    /// `page_search` against `partition_point` on `entries` and on the
    /// prefixes and suffixes around every one of its cuts, for the
    /// entry predicates of the write path ("≤ e", "< e") and the key
    /// predicates of a range scan ("≤ k", "< k").
    fn check_every_cut<K: Key, V: Copy + Ord + Debug>(
        mut entries: Vec<(K, V)>,
        extra: &[(K, V)],
    ) -> Result<(), TestCaseError> {
        entries.sort_by(cmp_entry);
        for e in entries.iter().chain(extra) {
            let shapes: [Shape<'_, (K, V)>; 4] = [
                ("<= e", &|x| cmp_entry(x, e) != Ordering::Greater),
                ("< e", &|x| cmp_entry(x, e) == Ordering::Less),
                ("<= k", &|x| cmp_key(&x.0, &e.0) != Ordering::Greater),
                ("< k", &|x| cmp_key(&x.0, &e.0) == Ordering::Less),
            ];
            for (name, below) in shapes {
                let cut = entries.partition_point(below);
                for slice in [&entries[..], &entries[..cut], &entries[cut..]] {
                    prop_assert_eq!(
                        page_search(slice, &e.0, below),
                        slice.partition_point(below),
                        "{} with e = {:?} in {:?}",
                        name,
                        e,
                        slice
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn f64_search_is_partition_point(
            keys in f64_keys(),
            values in prop::collection::vec((0u64..3, 0u64..3), 400),
            extra in f64_keys(),
        ) {
            let entries: Vec<(f64, (u64, u64))> = keys.into_iter().zip(values).collect();
            let extra: Vec<(f64, (u64, u64))> = extra.into_iter().map(|k| (k, (1, 1))).collect();
            check_every_cut(entries, &extra)?;
        }

        #[test]
        fn u64_search_is_partition_point(
            keys in u64_keys(),
            values in prop::collection::vec(0u64..4, 400),
            extra in u64_keys(),
        ) {
            let entries: Vec<(u64, u64)> = keys.into_iter().zip(values).collect();
            let extra: Vec<(u64, u64)> = extra.into_iter().map(|k| (k, 2)).collect();
            check_every_cut(entries, &extra)?;
        }

        #[test]
        fn u32_search_is_partition_point(
            keys in u32_keys(),
            values in prop::collection::vec(0u64..4, 400),
            extra in u32_keys(),
        ) {
            let entries: Vec<(u32, u64)> = keys.into_iter().zip(values).collect();
            let extra: Vec<(u32, u64)> = extra.into_iter().map(|k| (k, 2)).collect();
            check_every_cut(entries, &extra)?;
        }
    }

    /// The number of predicate calls one search makes.
    fn probes(entries: &[(f64, u64)], e: &(f64, u64)) -> u32 {
        let mut calls = 0;
        page_search(entries, &e.0, |x| {
            calls += 1;
            cmp_entry(x, e) != Ordering::Greater
        });
        calls
    }

    #[test]
    fn uniform_keys_take_a_few_probes() {
        #[allow(clippy::cast_precision_loss)]
        let entries: Vec<(f64, u64)> = (0..341u64).map(|i| (i as f64 * 0.37, i)).collect();
        for e in &entries {
            assert!(probes(&entries, e) <= 4, "{e:?}");
        }
    }

    #[test]
    fn skewed_keys_take_at_most_twice_log_n() {
        // Geometric keys: the interpolated guess lands near the bottom
        // for almost every key, so the gallop has to run the whole way.
        let entries: Vec<(f64, u64)> = (0..341).map(|i| (1.1f64.powi(i), 0)).collect();
        let bound = 2 * entries.len().next_power_of_two().ilog2() + 2;
        for e in &entries {
            assert!(probes(&entries, e) <= bound, "{e:?}");
        }
    }
}
