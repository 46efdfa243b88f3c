//! jucq's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper_cold|template_hot|serve_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up
//! (timed), checks every answer against the saturation oracle, measures
//! for `--seconds`, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs print
//! the `end_to_end` metrics of `BENCHMARK.json`; traced runs print its
//! `per_layer` ledger. README.md in this directory explains the
//! workloads and which layer metric should move which end-to-end one.

mod harness;
mod http;
mod inputs;
mod ledger;
mod paper_cold;
mod report;
mod serve_rw;
mod stats;
mod template_hot;

use std::process::ExitCode;

use harness::Args;

pub const WORKLOADS: [&str; 3] = ["paper_cold", "template_hot", "serve_rw"];

fn run(args: &Args) -> Result<report::Outcome, String> {
    let outcome = match args.workload.as_str() {
        "paper_cold" => paper_cold::run(args)?,
        "template_hot" => template_hot::run(args)?,
        "serve_rw" => serve_rw::run(args)?,
        other => {
            return Err(format!("unknown workload `{other}` (one of {})", WORKLOADS.join(", ")))
        }
    };
    report::check(&outcome.metrics, args.trace)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "usage: jucq-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", report::render(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: answers differ from the saturation oracle");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
