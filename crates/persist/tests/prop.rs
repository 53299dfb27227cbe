//! Property tests for the persistence machinery: every historical
//! version of the list must equal an eager replay, and crossing
//! enumeration must match the quadratic definition.

use mobidx_persist::{
    all_crossings, count_crossings, Occupant, PersistConfig, PersistentListBTree,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Versioned list ≡ replaying the swap prefix on a plain vector, at
    /// arbitrary probe times.
    #[test]
    fn versions_equal_replay(n in 2usize..60,
                             swaps in prop::collection::vec((0usize..64, 0.0f64..100.0), 1..150),
                             probes in prop::collection::vec(-1.0f64..120.0, 1..8),
                             page_records in 8usize..64) {
        let occupants: Vec<Occupant> = (0..n)
            .map(|i| Occupant { id: i as u64, y0: i as f64, v: 0.0 })
            .collect();
        let mut tree = PersistentListBTree::new(
            PersistConfig::small(page_records),
            occupants.clone(),
        );
        // Times must be monotone: sort the swap schedule.
        let mut schedule: Vec<(usize, f64)> =
            swaps.into_iter().map(|(p, t)| (p % (n - 1), t)).collect();
        schedule.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let mut replay = occupants.clone();
        let mut versions: Vec<(f64, Vec<Occupant>)> =
            vec![(f64::NEG_INFINITY, replay.clone())];
        for &(pos, t) in &schedule {
            tree.try_apply_swap(t, pos).unwrap();
            replay.swap(pos, pos + 1);
            versions.push((t, replay.clone()));
        }
        for &probe in &probes {
            let idx = versions.partition_point(|&(t, _)| t <= probe);
            let want = &versions[idx - 1].1;
            let got = tree.try_snapshot_at(probe).unwrap();
            prop_assert_eq!(&got, want, "probe {}", probe);
        }
    }

    /// Crossing enumeration == inversion count == quadratic oracle, and
    /// every event is a genuine meet.
    #[test]
    fn crossings_complete_and_correct(objs in prop::collection::vec((0.0f64..500.0, 0.2f64..2.0, prop::bool::ANY), 2..50),
                                      horizon in 1.0f64..500.0) {
        let objs: Vec<(f64, f64)> = objs
            .into_iter()
            .map(|(y, s, neg)| (y, if neg { -s } else { s }))
            .collect();
        let events = all_crossings(&objs, horizon);
        prop_assert_eq!(events.len(), count_crossings(&objs, horizon));
        for e in &events {
            let (ya, va) = objs[e.a];
            let (yb, vb) = objs[e.b];
            prop_assert!((ya + va * e.time - yb - vb * e.time).abs() < 1e-6);
            // b overtakes a: b is behind just before, ahead just after.
            let eps = 1e-7;
            let before = (yb + vb * (e.time - eps)) - (ya + va * (e.time - eps));
            let after = (yb + vb * (e.time + eps)) - (ya + va * (e.time + eps));
            prop_assert!(before < after, "overtaking direction violated");
        }
        // Sorted by time.
        prop_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    /// Range queries on the live tree equal filtering the replayed list
    /// by computed positions (crossings applied in causal order).
    #[test]
    fn range_queries_on_moving_objects(seedless in prop::collection::vec((0.0f64..300.0, 0.3f64..1.5), 3..40),
                                       horizon in 10.0f64..100.0,
                                       probe_frac in 0.0f64..1.0,
                                       y_lo in 0.0f64..300.0, width in 1.0f64..100.0) {
        let objs = seedless;
        let mut order: Vec<usize> = (0..objs.len()).collect();
        order.sort_by(|&i, &j| {
            (objs[i].0, objs[i].1).partial_cmp(&(objs[j].0, objs[j].1)).unwrap()
        });
        let occupants: Vec<Occupant> = order
            .iter()
            .map(|&i| Occupant { id: i as u64, y0: objs[i].0, v: objs[i].1 })
            .collect();
        let mut tree = PersistentListBTree::new(PersistConfig::small(24), occupants);
        for e in all_crossings(&objs, horizon) {
            let pos = tree.position_of(e.b as u64).unwrap();
            prop_assert_eq!(tree.position_of(e.a as u64), Some(pos + 1));
            tree.try_apply_swap(e.time, pos).unwrap();
        }
        let tq = horizon * probe_frac;
        let mut got: Vec<u64> = Vec::new();
        tree.try_query(tq, y_lo, y_lo + width, |o| got.push(o.id)).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = objs
            .iter()
            .enumerate()
            .filter(|(_, &(y, v))| {
                let p = y + v * tq;
                y_lo <= p && p <= y_lo + width
            })
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
