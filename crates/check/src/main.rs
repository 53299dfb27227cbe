//! Command-line front end for the model checker.
//!
//! ```text
//! mobidx-check [--ops N] [--seed S] [--faults <mode>|all] [--index <name>|all]
//! ```
//!
//! The modes are [`FaultMode::ALL`], the names [`INDEXES`]; a bad
//! argument prints both.
//!
//! Runs the requested (index × fault-mode) matrix; prints one report
//! line per run. On divergence, prints the reproducing command line and
//! exits with status 1.

use mobidx_check::{check_index, CheckConfig, FaultMode, INDEXES};
use std::process::ExitCode;

struct Args {
    ops: usize,
    seed: u64,
    faults: Vec<FaultMode>,
    indexes: Vec<&'static str>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        ops: 2000,
        seed: 1,
        faults: FaultMode::ALL.to_vec(),
        indexes: INDEXES.to_vec(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--ops" => {
                out.ops = value.parse().map_err(|_| format!("bad --ops {value:?}"))?;
            }
            "--seed" => {
                out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--faults" => {
                out.faults = if value == "all" {
                    FaultMode::ALL.to_vec()
                } else {
                    vec![FaultMode::parse(value).ok_or_else(|| format!("bad --faults {value:?}"))?]
                };
            }
            "--index" => {
                out.indexes = if value == "all" {
                    INDEXES.to_vec()
                } else {
                    let known = INDEXES.into_iter().find(|&n| n == value);
                    vec![known.ok_or_else(|| format!("bad --index {value:?}"))?]
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(out)
}

/// The usage line, its two value lists read off the tables.
fn usage() -> String {
    let modes: Vec<&str> = FaultMode::ALL.into_iter().map(FaultMode::name).collect();
    format!(
        "usage: mobidx-check [--ops N] [--seed S] [--faults {}|all] [--index {}|all]",
        modes.join("|"),
        INDEXES.join("|")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mobidx-check: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    for &index in &args.indexes {
        for &mode in &args.faults {
            let cfg = CheckConfig {
                ops: args.ops,
                seed: args.seed,
                faults: mode,
            };
            match check_index(index, &cfg) {
                Ok(report) => println!("ok   {report}"),
                Err(divergence) => {
                    println!("FAIL {index} [{}]", mode.name());
                    failures.push(divergence);
                }
            }
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for d in &failures {
            eprintln!("{d}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_target_and_mode() {
        let usage = usage();
        for index in INDEXES {
            assert!(usage.contains(index), "usage omits --index {index}");
        }
        for mode in FaultMode::ALL {
            assert!(
                usage.contains(mode.name()),
                "usage omits --faults {}",
                mode.name()
            );
        }
    }
}
