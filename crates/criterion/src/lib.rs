//! Offline stand-in for the `criterion` crate (0.5 API subset).
//!
//! The build container has no crates.io access; this shim is patched
//! over `crates-io` in the workspace manifest. It runs each registered
//! benchmark for a bounded number of timed iterations and prints one
//! JSON line per benchmark —
//! `{"bench":…,"median_ns":…,"q1_ns":…,"q3_ns":…,"samples":…}` — so a
//! script can hold the difference between two builds' medians against
//! their spread.
//! (The I/O-count reproduction of the paper's figures lives in the
//! `figures` binary, which does not use criterion at all.)

use std::time::{Duration, Instant};

/// How batched inputs are grouped (accepted, not acted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// The per-benchmark timing driver.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u32,
    target_samples: usize,
}

impl Bencher {
    fn new(target_samples: usize) -> Self {
        Self {
            samples: Vec::new(),
            iters_per_sample: 1,
            target_samples,
        }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.target_samples {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(routine());
            }
            self.samples.push(start.elapsed() / self.iters_per_sample);
        }
    }

    /// Times `routine` on inputs produced by `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.target_samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    /// The lower quartile, median and upper quartile of the samples
    /// (nearest rank), or `None` without samples.
    fn quartiles(&self) -> Option<[Duration; 3]> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let last = sorted.len().checked_sub(1)?;
        Some([1, 2, 3].map(|q| sorted[(last * q).div_ceil(4)]))
    }

    /// The benchmark's report row: one JSON object on one line, the
    /// quartiles in whole nanoseconds (absent without samples).
    fn row(&self, name: &str) -> String {
        let bench = json_string(name);
        let Some([q1, median, q3]) = self.quartiles() else {
            return format!(r#"{{"bench":{bench},"samples":0}}"#);
        };
        format!(
            r#"{{"bench":{bench},"median_ns":{},"q1_ns":{},"q3_ns":{},"samples":{}}}"#,
            median.as_nanos(),
            q1.as_nanos(),
            q3.as_nanos(),
            self.samples.len()
        )
    }

    fn report(&self, name: &str) {
        println!("{}", self.row(name));
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A named group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for compatibility; the shim always runs a fixed number
    /// of samples instead of a time budget.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for compatibility.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.into()));
        self
    }

    /// Ends the group (no-op; printed incrementally).
    pub fn finish(&mut self) {}
}

/// The top-level bench context.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _parent: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(10);
        f(&mut b);
        b.report(&id.into());
        self
    }
}

/// Declares a group-runner function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_routines() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        let mut count = 0u64;
        group.sample_size(3).bench_function("inc", |b| {
            b.iter(|| count += 1);
        });
        group.bench_function("batched", |b| {
            b.iter_batched(|| 2u64, |x| x * 2, BatchSize::SmallInput);
        });
        group.finish();
        assert!(count >= 3);
    }

    #[test]
    fn rows_are_json_lines() {
        let mut b = Bencher::new(0);
        assert_eq!(b.row("g/empty"), r#"{"bench":"g/empty","samples":0}"#);
        b.samples = [5, 1, 4, 2, 3].map(Duration::from_nanos).to_vec();
        assert_eq!(
            b.row("g/x"),
            r#"{"bench":"g/x","median_ns":3,"q1_ns":2,"q3_ns":4,"samples":5}"#
        );
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let mut b = Bencher::new(0);
        assert_eq!(b.quartiles(), None);
        b.samples = [5, 1, 4, 2, 3].map(Duration::from_nanos).to_vec();
        assert_eq!(b.quartiles(), Some([2, 3, 4].map(Duration::from_nanos)));
        b.samples = vec![Duration::from_nanos(7)];
        assert_eq!(b.quartiles(), Some([Duration::from_nanos(7); 3]));
    }
}
