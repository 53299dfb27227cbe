//! Model-checking integration tests.
//!
//! Every paged index is driven through thousands of seeded operations
//! (inserts, deletes, MOR queries, injected faults) against an
//! in-memory oracle. A run fails iff the index and the oracle ever
//! disagree on a query answer, or a fault escapes as anything other
//! than a typed [`mobidx_pager::PagerError`]. Failing runs print the
//! reproducing `mobidx-check` command line via the `Divergence`
//! display.

use mobidx_check::{check_index, CheckConfig, FaultMode, INDEXES};

const OPS: usize = 5_000;
const SEED: u64 = 1;

/// What `mobidx-check --ops 5000 --seed 1` printed when the seeds were
/// last pinned: one `ok   <report>` line per (index, mode) cell.
const GOLDEN: &str = include_str!("golden/matrix_ops5000_seed1.txt");

/// Runs one cell of the matrix and holds its report to the pinned line:
/// a refactor that shifts one RNG draw or one fault's arming fails here
/// instead of passing with different numbers.
fn run(index: &'static str, faults: FaultMode) -> mobidx_check::Report {
    let cfg = CheckConfig {
        ops: OPS,
        seed: SEED,
        faults,
    };
    let report = match check_index(index, &cfg) {
        Ok(report) => report,
        Err(divergence) => panic!("model-check divergence:\n{divergence}"),
    };
    let pinned = GOLDEN
        .lines()
        .filter_map(|line| line.strip_prefix("ok   "))
        .find(|line| {
            let mut cell = line.split_whitespace();
            cell.next() == Some(index) && cell.next() == Some(faults.name())
        })
        .unwrap_or_else(|| panic!("no golden line for {index} [{}]", faults.name()));
    assert_eq!(
        format!("{report}"),
        pinned,
        "{index} [{}]: report differs from tests/golden/matrix_ops5000_seed1.txt \
         (a deliberate re-pin is stated in CHANGES.md)",
        faults.name()
    );
    report
}

#[test]
fn bptree_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        run("bptree", mode);
    }
}

#[test]
fn interval_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        run("interval", mode);
    }
}

#[test]
fn kdtree_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        run("kdtree", mode);
    }
}

#[test]
fn rstar_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        run("rstar", mode);
    }
}

#[test]
fn persist_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        run("persist", mode);
    }
}

/// The durable target checks a stronger contract than oracle
/// agreement: after every surfaced fault the directory is reopened and
/// the recovered tree must be exactly the last sealed commit window.
#[test]
fn durable_agrees_with_oracle_under_all_fault_modes() {
    for mode in FaultMode::ALL {
        let report = run("durable", mode);
        if mode != FaultMode::None {
            assert!(
                report.rebuilds > 0,
                "durable [{}]: no crash-recovery round ever ran",
                mode.name()
            );
        }
    }
}

/// The fault plans must actually exercise the error paths: a matrix
/// row that injects nothing would vacuously pass.
#[test]
fn fault_modes_inject_and_indexes_recover() {
    for &index in &INDEXES {
        let clean = run(index, FaultMode::None);
        assert_eq!(clean.injected, 0, "{index}: clean run injected faults");
        assert_eq!(clean.faults_surfaced, 0);
        assert_eq!(clean.rebuilds, 0);

        let transient = run(index, FaultMode::Transient);
        assert!(transient.injected > 0, "{index}: transient injected none");
        assert!(transient.retries > 0, "{index}: transient never retried");
        assert!(
            transient.recovered > 0,
            "{index}: no transient fault recovered in-place"
        );

        let torn = run(index, FaultMode::Torn);
        assert!(torn.injected > 0, "{index}: torn injected none");
        assert!(
            torn.faults_surfaced > 0,
            "{index}: no torn fault surfaced as a typed error"
        );
        assert!(torn.rebuilds > 0, "{index}: torn never forced a rebuild");

        let crash = run(index, FaultMode::Crash);
        assert!(crash.injected > 0, "{index}: crash injected none");
        assert!(
            crash.faults_surfaced > 0,
            "{index}: no crash surfaced as a typed error"
        );
    }
}

/// Identical configuration twice must produce identical reports — the
/// printed seed genuinely reproduces a run.
#[test]
fn runs_are_deterministic() {
    for &index in &INDEXES {
        let cfg = CheckConfig {
            ops: 1_000,
            seed: 9,
            faults: FaultMode::Torn,
        };
        let a = check_index(index, &cfg).expect("first run diverged");
        let b = check_index(index, &cfg).expect("second run diverged");
        assert_eq!(format!("{a}"), format!("{b}"), "{index}: nondeterministic");
    }
}
