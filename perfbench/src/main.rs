//! The APEX benchmark: three seeded workloads, every answer checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lib_mixed|serve_point|serve_drift|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For each workload (`all` runs the three in turn) it prints a table of
//! every value measured, then one JSON line with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`. The traced run also writes its spans to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. Any wrong answer or
//! unbalanced ledger prints `"correct": false` and exits with code 1.

#![forbid(unsafe_code)]

mod ladder;
mod lib_mixed;
mod measure;
mod report;
mod serve;
mod setup;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured run length.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Origin of every span timestamp.
    pub epoch: Instant,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        epoch: Instant::now(),
    })
}

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["lib_mixed", "serve_point", "serve_drift"];

/// Runs one workload, prints its table and result line, and returns
/// whether every check passed.
fn run_one(workload: &str, args: &Args) -> bool {
    let (mut outcome, spans) = match workload {
        "lib_mixed" => lib_mixed::run(args),
        "serve_point" => serve::run(&serve::POINT, args),
        _ => serve::run(&serve::DRIFT, args),
    };
    if args.trace {
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{workload}-{}.jsonl", args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => outcome
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    print!("{}", report::table(workload, &outcome));
    let set = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report::result_line(&outcome, set));
    outcome.errors.is_empty()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <lib_mixed|serve_point|serve_drift|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let chosen: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    // Every chosen workload runs even after one fails.
    let passed = chosen.iter().filter(|w| run_one(w, &args)).count();
    if passed != chosen.len() {
        std::process::exit(1);
    }
}
