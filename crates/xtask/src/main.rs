//! Command-line entry point for the workspace tasks.
//!
//! `cargo run -p xtask -- lint` runs distill-lint over the workspace and
//! exits non-zero when any invariant it checks is violated. Clippy checks
//! the rest (`cargo clippy --workspace --all-targets -- -D warnings`). See
//! `xtask::lint_workspace_report` and `DESIGN.md` §9/§14 for the split,
//! the JSON diagnostics schema, and the baseline-ratchet workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use xtask::{lint_workspace_report, report, LintConfig};

const USAGE: &str = "usage: cargo run -p xtask -- lint [options]

Runs distill-lint, the workspace invariant checker, on the rules that
types cannot express:
  D3  every non-exempt member forbids unsafe code in its manifest
  D4  [workspace.lints] policy at deny and inherited by protected crates
  D6  Stream::Aux tags literal and collision-free
  D7  no allocating constructs in `// lint: hot` functions
Clippy enforces D1 panic-freedom, D2 determinism, D5 lossy casts and D6's
seeding ban through [workspace.lints] and clippy.toml.

Options:
  --root <dir>              lint this workspace root (default: this repo)
  --protected a,b,c         override the protected member list
  --format text|json        diagnostics format (default: text)
  --baseline <path>         ratchet mode: fail only on counts above the
                            committed baseline (burndown may shrink freely)
  --write-baseline <path>   bless the current counts as the new baseline
  --list-suppressions       print the ledger: `lint: allow` comments and
                            `#[expect]`s in protected non-test code

Exit codes: 0 clean (or within baseline), 1 violations (or ratchet breach),
2 usage or I/O error.";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

struct Options {
    root: Option<PathBuf>,
    protected: Option<Vec<String>>,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    list_suppressions: bool,
}

fn parse_options(mut args: std::vec::IntoIter<String>) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        protected: None,
        json: false,
        baseline: None,
        write_baseline: None,
        list_suppressions: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root needs a directory".to_string()),
            },
            "--protected" => match args.next() {
                Some(list) => {
                    opts.protected = Some(
                        list.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(String::from)
                            .collect(),
                    )
                }
                None => return Err("--protected needs a comma-separated list".to_string()),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                _ => return Err("--format needs `text` or `json`".to_string()),
            },
            "--baseline" => match args.next() {
                Some(path) => opts.baseline = Some(PathBuf::from(path)),
                None => return Err("--baseline needs a file path".to_string()),
            },
            "--write-baseline" => match args.next() {
                Some(path) => opts.write_baseline = Some(PathBuf::from(path)),
                None => return Err("--write-baseline needs a file path".to_string()),
            },
            "--list-suppressions" => opts.list_suppressions = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn run(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("lint") => {}
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return if args.next().is_none() { 0 } else { 2 };
        }
        Some(other) => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            return 2;
        }
    }

    let opts = match parse_options(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };

    let root = opts.root.clone().unwrap_or_else(default_root);
    let mut config = LintConfig::for_repo(root);
    if let Some(p) = opts.protected.clone() {
        config.protected = p;
    }

    let lint_report = match lint_workspace_report(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("distill-lint: error: {e}");
            return 2;
        }
    };
    let counts = report::Counts::of(&lint_report);

    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, report::baseline_json(&counts)) {
            eprintln!("distill-lint: cannot write {}: {e}", path.display());
            return 2;
        }
        println!(
            "distill-lint: baseline blessed at {} ({} violation(s), {} suppression(s))",
            path.display(),
            counts.total_violations(),
            counts.total_suppressions()
        );
        return 0;
    }

    if opts.list_suppressions {
        for s in &lint_report.suppressions {
            println!("{s}");
        }
        println!(
            "distill-lint: {} suppression(s)",
            lint_report.suppressions.len()
        );
        return 0;
    }

    // Ratchet mode: compare against the committed baseline.
    let ratchet = match &opts.baseline {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("distill-lint: cannot read {}: {e}", path.display());
                    return 2;
                }
            };
            match report::parse_baseline(&text) {
                Ok(baseline) => Some(report::ratchet(&counts, &baseline)),
                Err(e) => {
                    eprintln!("distill-lint: {e}");
                    return 2;
                }
            }
        }
    };

    if opts.json {
        print!("{}", report::to_json(&lint_report));
    } else {
        for v in &lint_report.violations {
            println!("{v}");
        }
    }

    match ratchet {
        Some((breaches, shrank)) => {
            for b in &breaches {
                eprintln!("distill-lint: ratchet breach: {b}");
            }
            if breaches.is_empty() {
                if shrank {
                    eprintln!(
                        "distill-lint: burndown shrank below the baseline; tighten the \
                         ratchet with `cargo run -p xtask -- lint --write-baseline \
                         lint-baseline.json`"
                    );
                }
                if !opts.json {
                    println!(
                        "distill-lint: within baseline ({} violation(s), {} suppression(s))",
                        counts.total_violations(),
                        counts.total_suppressions()
                    );
                }
                0
            } else {
                1
            }
        }
        None => {
            if lint_report.violations.is_empty() {
                if !opts.json {
                    println!(
                        "distill-lint: workspace clean (rules D3, D4, D6, D7; {} suppression(s))",
                        lint_report.suppressions.len()
                    );
                }
                0
            } else {
                if !opts.json {
                    println!(
                        "distill-lint: {} violation(s)",
                        lint_report.violations.len()
                    );
                }
                1
            }
        }
    }
}

/// The workspace root: two levels above this crate's manifest dir, which is
/// where `cargo run -p xtask` executes from under any working directory.
fn default_root() -> PathBuf {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
