//! §7 future work: "joins among relations of mobile objects".
//!
//! The canonical mobile-object join: report every pair of objects that
//! come within distance `d` of each other at some instant of the future
//! window `[t1, t2]`. Because motions are linear, the pairwise distance
//! `|y_i(t) − y_j(t)|` is the absolute value of an affine function of
//! `t`: its minimum over the window is 0 if the relative position
//! changes sign (they cross), else the smaller endpoint distance. The
//! join therefore needs no numeric search — only a candidate generator.
//!
//! [`within_distance_join`] uses a **plane sweep** over positions at
//! `t1`: a pair can only qualify if its `t1`-gap is at most
//! `d + 2·v_max·(t2 − t1)` (no pair can close distance faster than the
//! maximum relative speed `2·v_max`), so sorting by `y(t1)` and scanning
//! a sliding window of that width yields all candidates in
//! `O(N log N + candidates)`; each candidate is then checked exactly.

use mobidx_workload::Motion1D;

/// The exact minimum distance between two linear motions over a closed
/// time window.
#[must_use]
pub fn min_pair_distance(a: &Motion1D, b: &Motion1D, t1: f64, t2: f64) -> f64 {
    let d1 = a.position_at(t1) - b.position_at(t1);
    let d2 = a.position_at(t2) - b.position_at(t2);
    if d1 == 0.0 || d2 == 0.0 || (d1 < 0.0) != (d2 < 0.0) {
        0.0 // they meet (or touch) inside the window
    } else {
        d1.abs().min(d2.abs())
    }
}

/// Reports every unordered pair of objects whose predicted distance
/// drops to `d` or below at some instant of `[t1, t2]`, as
/// `(smaller id, larger id)` pairs, sorted.
///
/// ```
/// use mobidx_core::method::join::within_distance_join;
/// use mobidx_core::Motion1D;
///
/// let objects = [
///     Motion1D { id: 1, t0: 0.0, y0: 0.0, v: 1.0 },
///     Motion1D { id: 2, t0: 0.0, y0: 10.0, v: -1.0 }, // meets 1 at t = 5
///     Motion1D { id: 3, t0: 0.0, y0: 500.0, v: 1.0 }, // far from both
/// ];
/// assert_eq!(within_distance_join(&objects, 0.0, 10.0, 0.5, 1.0), vec![(1, 2)]);
/// assert!(within_distance_join(&objects, 0.0, 3.0, 0.5, 1.0).is_empty());
/// ```
///
/// `v_max` must bound every object's speed magnitude (it controls the
/// sweep window; a too-small bound loses pairs, a larger one only costs
/// time).
///
/// # Panics
/// Panics if `t1 > t2` or `d < 0`.
#[must_use]
pub fn within_distance_join(
    objects: &[Motion1D],
    t1: f64,
    t2: f64,
    d: f64,
    v_max: f64,
) -> Vec<(u64, u64)> {
    assert!(t1 <= t2, "inverted window");
    assert!(d >= 0.0, "negative distance");
    let mut order: Vec<(f64, usize)> = objects
        .iter()
        .enumerate()
        .map(|(i, m)| (m.position_at(t1), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Maximum closing speed between two objects is 2·v_max.
    let window = d + 2.0 * v_max.abs() * (t2 - t1);

    let mut out = Vec::new();
    for (i, &(yi, oi)) in order.iter().enumerate() {
        for &(yj, oj) in &order[i + 1..] {
            if yj - yi > window {
                break;
            }
            if min_pair_distance(&objects[oi], &objects[oj], t1, t2) <= d {
                let (a, b) = (objects[oi].id, objects[oj].id);
                out.push(if a < b { (a, b) } else { (b, a) });
            }
        }
    }
    crate::ids::sort_dedup(&mut out);
    out
}

/// Quadratic oracle for tests.
#[must_use]
pub fn brute_force_join(objects: &[Motion1D], t1: f64, t2: f64, d: f64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (i, a) in objects.iter().enumerate() {
        for b in &objects[i + 1..] {
            if min_pair_distance(a, b, t1, t2) <= d {
                let (x, y) = (a.id, b.id);
                out.push(if x < y { (x, y) } else { (y, x) });
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_workload::{Simulator1D, WorkloadConfig};

    #[test]
    fn min_distance_cases() {
        let a = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 0.0,
            v: 1.0,
        };
        let b = Motion1D {
            id: 2,
            t0: 0.0,
            y0: 10.0,
            v: -1.0,
        }; // they meet at t=5
        assert_eq!(min_pair_distance(&a, &b, 0.0, 10.0), 0.0);
        assert!((min_pair_distance(&a, &b, 0.0, 2.0) - 6.0).abs() < 1e-12); // closest at t=2
        assert!((min_pair_distance(&a, &b, 6.0, 8.0) - 2.0).abs() < 1e-12); // past the meet
    }

    #[test]
    fn join_matches_brute_force() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 300,
            seed: 0x70,
            ..WorkloadConfig::default()
        });
        for _ in 0..5 {
            let _ = sim.step();
        }
        let objects = sim.objects();
        let v_max = sim.config().v_max;
        let t1 = sim.now();
        for (dt, d) in [(0.0, 1.0), (10.0, 0.5), (30.0, 2.0)] {
            let got = within_distance_join(objects, t1, t1 + dt, d, v_max);
            let want = brute_force_join(objects, t1, t1 + dt, d);
            assert_eq!(got, want, "dt={dt} d={d}");
            assert!(!want.is_empty(), "degenerate test (dt={dt} d={d})");
        }
    }

    #[test]
    fn join_of_parallel_objects() {
        // Equal velocities: distances are constant; only pairs already
        // within d qualify, at any window length.
        let objects: Vec<Motion1D> = (0..10)
            .map(|i| Motion1D {
                id: i,
                t0: 0.0,
                y0: f64::from(u32::try_from(i).unwrap()) * 3.0,
                v: 1.0,
            })
            .collect();
        let got = within_distance_join(&objects, 0.0, 1000.0, 3.0, 2.0);
        // Exactly the 9 adjacent pairs (gap 3.0 == d).
        assert_eq!(got.len(), 9);
        assert!(got.contains(&(0, 1)) && got.contains(&(8, 9)));
    }

    #[test]
    fn zero_window_join_is_snapshot_proximity() {
        let objects = vec![
            Motion1D {
                id: 1,
                t0: 0.0,
                y0: 0.0,
                v: 1.0,
            },
            Motion1D {
                id: 2,
                t0: 0.0,
                y0: 5.0,
                v: -1.0,
            },
        ];
        assert!(within_distance_join(&objects, 0.0, 0.0, 4.9, 1.0).is_empty());
        assert_eq!(
            within_distance_join(&objects, 0.0, 0.0, 5.0, 1.0),
            vec![(1, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "inverted window")]
    fn inverted_window_panics() {
        let _ = within_distance_join(&[], 1.0, 0.0, 1.0, 1.0);
    }
}
