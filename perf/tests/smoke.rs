//! `--scale smoke` runs of all five workloads: every declared metric is
//! printed once with its unit, no operation fails, exact counts repeat
//! with the seed and move with it, and nothing is left on disk.

use perf_ledger::inputs::Inputs;
use perf_ledger::phase::Budget;
use perf_ledger::report::Report;
use perf_ledger::run::{end_to_end, Options};
use perf_ledger::scratch::{tmp_root, TMP_DIR};
use perf_ledger::spec::{self, workload_names, MetricDef, Scale};
use perf_ledger::stack::Stack;
use perf_ledger::traced::traced;
use std::path::PathBuf;

/// Metrics that are counts made by the program: they must repeat exactly.
const EXACT: [&str; 2] = ["ios_per_op", "pages_per_kobject"];

fn opts(seed: u64) -> Options {
    Options {
        seed,
        scale: Scale::Smoke,
        budget: Budget::Slices(3),
        trace_out: None,
    }
}

/// Scratch directories this process still owns.
fn own_scratch_dirs() -> Vec<PathBuf> {
    let prefix = format!("run-{}-", std::process::id());
    std::fs::read_dir(tmp_root().expect("scratch root"))
        .expect("list scratch root")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

fn assert_declared(report: &Report, declared: &[MetricDef]) {
    let got: Vec<MetricDef> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, declared, "metrics must be the declared ones, in order");
    let text = report.render();
    for (name, unit) in declared {
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .collect();
        assert_eq!(lines.len(), 1, "{name} must be printed exactly once");
        assert!(
            lines[0].ends_with(&format!(" {unit}")),
            "{name}: {}",
            lines[0]
        );
    }
    let last = text.lines().last().expect("a JSON line");
    let json = mobidx_obs::json::Value::parse(last).expect("last line is JSON");
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    assert_eq!(metrics.len(), declared.len());
    for (name, unit) in declared {
        let m = json.get("metrics").and_then(|m| m.get(name)).expect(name);
        assert!(
            m.get("value").and_then(|v| v.as_f64()).is_some(),
            "{name} value"
        );
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()),
            Some(*unit),
            "{name} unit"
        );
    }
}

/// One test owns every run that touches the scratch root, so that the
/// emptiness check at the end cannot race a sibling's live directory.
#[test]
fn all_workloads_end_to_end_and_traced_at_smoke_scale() {
    for name in workload_names() {
        let first = end_to_end(name, &opts(7)).expect(name);
        let again = end_to_end(name, &opts(7)).expect(name);
        let other = end_to_end(name, &opts(11)).expect(name);
        for report in [&first, &again, &other] {
            assert_declared(report, &spec::END_TO_END);
            assert_eq!(report.failed, 0, "{name}: failed ops");
            assert!(report.correct() && report.attempted > 0, "{name}");
            for m in &report.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
        for exact in EXACT {
            assert_eq!(
                first.get(exact),
                again.get(exact),
                "{name}: {exact} must repeat"
            );
        }
        assert!(
            EXACT.iter().any(|m| first.get(m) != other.get(m)),
            "{name}: another seed must give other inputs"
        );

        let out = tmp_root()
            .unwrap()
            .parent()
            .unwrap()
            .join(format!("smoke-trace-{name}.json"));
        let report = traced(
            name,
            &Options {
                trace_out: Some(out.clone()),
                ..opts(7)
            },
        )
        .expect(name);
        assert_declared(&report, &spec::PER_LAYER);
        assert_eq!(report.failed, 0, "{name}: failed ops (traced)");
        let trace = std::fs::read_to_string(&out).expect("trace file");
        let trace = mobidx_obs::json::Value::parse(&trace).expect("trace is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        let has = |span: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(span))
        };
        let s = spec::spec(name, Scale::Smoke).unwrap();
        if s.kind.writes() {
            assert!(
                has("serve.apply") && has("core.batch_update") && has("core.freeze"),
                "{name}"
            );
        }
        if s.kind.reads() && s.kind.sharded() {
            assert!(
                has("serve.query") && has("query") && has("s0/execute"),
                "{name}"
            );
            assert!(report.get("serve.leg_us").unwrap() > 0.0);
        }
        if !s.kind.sharded() {
            assert!(has("core.query") && has("index.query"), "{name}");
        }
        std::fs::remove_file(&out).expect("remove trace file");
    }

    // A panic while a durable stack is alive must still remove its
    // directory.
    let spec = spec::spec("durable_stream", Scale::Smoke).unwrap();
    let (_, setup) = Inputs::new(spec, 7);
    let root = tmp_root().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let stack = Stack::build(&spec, &setup, &root).expect("durable stack");
        if let Stack::Sharded { dir: Some(dir), .. } = &stack {
            tx.send(dir.path().to_path_buf()).unwrap();
        }
        assert!(stack.wal_bytes() > 0, "set-up must have reached the WAL");
        panic!("induced");
    }));
    assert!(caught.is_err());
    let dir = rx.recv().expect("the stack had a directory");
    assert!(dir.ends_with(dir.file_name().unwrap()) && dir.parent().unwrap().ends_with(TMP_DIR));
    assert!(!dir.exists(), "unwinding must remove {}", dir.display());

    assert_eq!(
        own_scratch_dirs(),
        Vec::<PathBuf>::new(),
        "scratch must be empty"
    );
}

/// `BENCHMARK.json` and the harness must name the same things.
#[test]
fn benchmark_json_matches_the_harness() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = mobidx_obs::json::Value::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = json
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str, unit: bool| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.get(f)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_owned()
                };
                (
                    field("name"),
                    if unit { field("unit") } else { field("why") },
                )
            })
            .collect()
    };
    let declared = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end", true), declared(&spec::END_TO_END));
    assert_eq!(names("per_layer", true), declared(&spec::PER_LAYER));
    let workloads: Vec<(String, String)> = workload_names()
        .into_iter()
        .map(|n| {
            (
                n.to_owned(),
                spec::spec(n, Scale::Full).unwrap().why.to_owned(),
            )
        })
        .collect();
    assert_eq!(names("workloads", false), workloads);
    assert_eq!(
        json.get("run_seconds").and_then(|v| v.as_u64()),
        Some(spec::RUN_SECONDS)
    );
    for e in json.get("end_to_end").and_then(|v| v.as_array()).unwrap() {
        let bound = e.get("bound").and_then(|b| b.as_f64()).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        let better = e.get("better").and_then(|b| b.as_str()).expect("better");
        assert!(better == "lower" || better == "higher");
    }
    assert!(workloads
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}
