//! Benchmark regression gate: diffs two `BENCH_*.json` reports.
//!
//! ```text
//! bench-diff <baseline.json> <current.json> [--threshold PCT]
//! bench-diff --beats <challenger> <incumbent> <report.json>
//! ```
//!
//! Compares the deterministic metrics of a baseline report against a
//! freshly measured one (figure reports: `avg_query_ios`,
//! `avg_update_ios`, `pages`; serve reports: `ios_per_op`,
//! `reads_per_query`) and prints an aligned delta table. Exit status:
//!
//! * `0` — every metric within `--threshold` (default 10 %);
//! * `1` — a metric regressed past the threshold, or a baseline row or
//!   gated metric is missing from the current report;
//! * `2` — usage, I/O, or parse error.
//!
//! `--beats` switches to the head-to-head mode: within a **single**
//! figure report, the challenger method must be strictly better than
//! the incumbent on `avg_query_ios` and `false_hit_rate` at every
//! `(mix, n)` cell where both were measured (exit 1 if it is not).

use mobidx_bench::diff::{beats_report, diff_reports};
use mobidx_obs::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--beats") {
        if args.len() != 4 {
            usage();
        }
        let doc = load(&args[3]);
        let report = beats_report(&doc, &args[1], &args[2])
            .unwrap_or_else(|e| fail(&format!("cannot gate {}: {e}", args[3])));
        println!("report: {}\n", args[3]);
        print!("{}", report.render_table());
        if !report.wins() {
            std::process::exit(1);
        }
        return;
    }
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 10.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                threshold = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            arg if arg.starts_with("--") => usage(),
            _ => {
                paths.push(args[i].clone());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        usage();
    }

    let baseline = load(&paths[0]);
    let current = load(&paths[1]);
    let diff = diff_reports(&baseline, &current, threshold)
        .unwrap_or_else(|e| fail(&format!("cannot diff {} vs {}: {e}", paths[0], paths[1])));
    println!("baseline: {}\ncurrent:  {}\n", paths[0], paths[1]);
    print!("{}", diff.render_table());
    if diff.regressed() {
        std::process::exit(1);
    }
}

/// Reads and parses one report, exiting with status 2 on failure.
fn load(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Value::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-diff <baseline.json> <current.json> [--threshold PCT]\n\
         \x20      bench-diff --beats <challenger> <incumbent> <report.json>"
    );
    std::process::exit(2);
}
