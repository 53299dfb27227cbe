//! How a number is taken: equal slices, the quiet set, nearest-rank
//! percentiles, and the process's own CPU time and memory from `/proc`.
//!
//! A measured phase is a run of slices of equal work. Interference on a
//! shared box only ever adds time, so the slices that took the least
//! time estimate the program's own cost; every timing metric is computed
//! over that *quiet set* (a third of the slices) and nothing else.

use std::time::Duration;

/// What one slice recorded. Times are the client's busy time: the sum of
/// the durations of its calls, without the harness's work in between.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Queries plus object updates.
    pub ops: u64,
    /// Sum of call durations.
    pub busy_ns: u64,
    /// On-CPU time of every thread of the process across the slice.
    pub cpu_ns: u64,
    /// Duration of each step (what `call_p*_us` is taken from).
    pub step_ns: Vec<u64>,
    /// Duration of each query.
    pub query_ns: Vec<u64>,
    /// Duration of each apply.
    pub apply_ns: Vec<u64>,
    /// Ids returned by the slice's queries, summed.
    pub ids: u64,
}

/// Indices of the `keep` entries of `times` with the least value, ties
/// to the earlier slice, in ascending index order.
#[must_use]
pub fn quiet_set(times: &[u64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by_key(|&i| (times[i], i));
    order.truncate(keep.min(times.len()));
    order.sort_unstable();
    order
}

/// Size of the quiet set for `slices` slices: a third, at least two.
#[must_use]
pub fn quiet_len(slices: usize) -> usize {
    ((slices + 1) / 3).max(2).min(slices)
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in (0, 100].
/// 0 for an empty sample.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small unsorted sample of floats (mean of the middle two
/// when even). 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The timing view of a measured phase, over its quiet set.
#[derive(Debug, Clone, Default)]
pub struct Quiet {
    /// Slices in the phase.
    pub slices: usize,
    /// Ops per second of busy time, quiet set.
    pub ops_per_s: f64,
    /// Ops per second of busy time, every slice.
    pub ops_per_s_all: f64,
    /// On-CPU microseconds per op, quiet set.
    pub cpu_us_per_op: f64,
    /// (q3 − q1) / median of the per-slice rate, in percent.
    pub slice_spread_pct: f64,
    /// Pooled step durations of the quiet set, ascending.
    pub step_ns: Vec<u64>,
    /// Pooled query durations of the quiet set, ascending.
    pub query_ns: Vec<u64>,
    /// Pooled apply durations of the quiet set, ascending.
    pub apply_ns: Vec<u64>,
}

/// Reduces the slices of a phase to their quiet-set view.
#[must_use]
pub fn quiet(slices: &[Slice]) -> Quiet {
    let busy: Vec<u64> = slices.iter().map(|s| s.busy_ns).collect();
    let chosen = quiet_set(&busy, quiet_len(slices.len()));
    let mut q = Quiet {
        slices: slices.len(),
        ..Quiet::default()
    };
    let (mut ops, mut busy_ns, mut cpu_ns) = (0u64, 0u64, 0u64);
    for &i in &chosen {
        let s = &slices[i];
        ops += s.ops;
        busy_ns += s.busy_ns;
        cpu_ns += s.cpu_ns;
        q.step_ns.extend_from_slice(&s.step_ns);
        q.query_ns.extend_from_slice(&s.query_ns);
        q.apply_ns.extend_from_slice(&s.apply_ns);
    }
    q.step_ns.sort_unstable();
    q.query_ns.sort_unstable();
    q.apply_ns.sort_unstable();
    q.ops_per_s = rate(ops, busy_ns);
    q.cpu_us_per_op = ratio(cpu_ns, ops) / 1e3;
    q.ops_per_s_all = rate(
        slices.iter().map(|s| s.ops).sum(),
        slices.iter().map(|s| s.busy_ns).sum(),
    );
    let mut rates: Vec<f64> = slices.iter().map(|s| rate(s.ops, s.busy_ns)).collect();
    rates.sort_by(f64::total_cmp);
    if rates.len() >= 4 {
        let at = |f: f64| {
            let i = (f * (rates.len() - 1) as f64).round() as usize;
            rates[i]
        };
        q.slice_spread_pct = 100.0 * (at(0.75) - at(0.25)) / at(0.5);
    }
    q
}

/// `count` per second of `nanos`.
#[must_use]
pub fn rate(count: u64, nanos: u64) -> f64 {
    ratio(count, nanos) * 1e9
}

/// `a / b` as floats, 0 when `b` is 0.
#[must_use]
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        return 0.0;
    }
    a as f64 / b as f64
}

/// Nanoseconds as microseconds.
#[must_use]
pub fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// A `Duration` as whole nanoseconds.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// On-CPU nanoseconds of every live thread of this process: the first
/// field of each `/proc/self/task/*/schedstat`. 0 where procfs has no
/// schedstat.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_set_picks_the_five_fastest_of_fifteen() {
        let times = [90, 12, 80, 11, 70, 15, 60, 14, 50, 13, 40, 99, 98, 97, 96];
        assert_eq!(quiet_len(times.len()), 5);
        assert_eq!(quiet_set(&times, 5), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn quiet_set_breaks_ties_towards_earlier_slices() {
        assert_eq!(quiet_set(&[5, 5, 5, 5], 2), vec![0, 1]);
        assert_eq!(quiet_set(&[7], 3), vec![0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quiet_view_ignores_the_slow_slices() {
        let mk = |busy_ns| Slice {
            ops: 100,
            busy_ns,
            cpu_ns: busy_ns,
            step_ns: vec![busy_ns / 100; 100],
            ..Slice::default()
        };
        let slices: Vec<Slice> = [
            1_000_000, 9_000_000, 1_000_000, 8_000_000, 7_000_000, 6_000_000,
        ]
        .into_iter()
        .map(mk)
        .collect();
        let q = quiet(&slices);
        assert_eq!(q.slices, 6);
        assert!((q.ops_per_s - 1e5).abs() < 1e-6);
        assert!(q.ops_per_s_all < q.ops_per_s);
        assert_eq!(q.step_ns.len(), 200);
    }

    #[test]
    fn procfs_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() >= before);
    }
}
