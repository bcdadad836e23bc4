//! `distill` — the command-line interface to the reproduction.
//!
//! ```sh
//! distill run --n 1024 --honest 922 --adversary threshold-matcher --trials 20
//! distill gauntlet --n 512
//! distill bounds --n 4096 --alpha 0.95
//! distill lemma9 25,23,22,18,14,7 --a 0.00193
//! distill help
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw, &["resume", "verify"]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::help());
            std::process::exit(2);
        }
    };
    match commands::dispatch(&parsed) {
        Ok(output) => println!("{output}"),
        Err(commands::CliError::Quarantined { output, count }) => {
            // The sweep itself completed: print the report, then fail with a
            // distinct exit code so CI distinguishes "quarantined trials"
            // from hard errors.
            println!("{output}");
            eprintln!(
                "error: {count} trial(s) quarantined (replay records in the quarantine file)"
            );
            std::process::exit(3);
        }
        Err(commands::CliError::Regression { output, count }) => {
            // The diff itself completed: print the verdict table, then fail
            // with a distinct exit code so the perf-trend job distinguishes
            // "bench regressed" from hard errors.
            println!("{output}");
            eprintln!("error: {count} bench(es) regressed past the tolerance band");
            std::process::exit(4);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
