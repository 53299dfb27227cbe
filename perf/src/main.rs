//! `perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale full|smoke] [--trace-out <file>]`
//!
//! Prints one `name value unit` line per metric and, last, the JSON
//! object the driver reads. Exits 0 when every operation succeeded and
//! every answer was exact, 1 when not, 2 on a bad command line.

use perf_ledger::phase::Budget;
use perf_ledger::run::{end_to_end, Options};
use perf_ledger::spec::{workload_names, Scale, RUN_SECONDS};
use perf_ledger::traced::traced;
use std::process::ExitCode;

const USAGE: &str = "usage: perf-ledger --workload <name> [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--scale full|smoke] [--trace-out <file>]";

struct Cli {
    workload: String,
    trace: bool,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut trace = false;
    let mut opts = Options {
        seed: 7,
        scale: Scale::Full,
        budget: Budget::Seconds(RUN_SECONDS as f64),
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                opts.budget = Budget::Seconds(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--scale" => {
                opts.scale = match value {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale {value}: expected full or smoke")),
                }
            }
            "--trace-out" => opts.trace_out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (one of {})",
            workload_names().join(", ")
        )
    })?;
    Ok(Cli {
        workload,
        trace,
        opts,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.trace {
        traced(&cli.workload, &cli.opts)
    } else {
        end_to_end(&cli.workload, &cli.opts)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perf-ledger: {} of {} operations failed",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
