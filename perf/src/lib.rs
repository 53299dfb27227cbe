//! # perf-ledger — the repository's benchmark
//!
//! Five workloads drive the serving stack of `mobidx` at the paper's N
//! through public functions only, time every call from outside, check
//! every answer against the brute-force oracle, and report the numbers
//! `BENCHMARK.json` declares: end to end with tracing off
//! ([`run::end_to_end`]), layer by layer with tracing on
//! ([`traced::traced`]). `README.md` has the method and the reasons.

pub mod inputs;
pub mod layers;
pub mod measure;
pub mod peel;
pub mod phase;
pub mod report;
pub mod run;
pub mod scratch;
pub mod spec;
pub mod stack;
pub mod trace;
pub mod traced;
