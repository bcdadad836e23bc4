//! Runs every workload at `--scale smoke` and checks the output contract:
//! every metric `BENCHMARK.json` names is printed with its unit, the
//! correctness checks pass, traced and untraced digests agree, run-set
//! files parse with `distill_harness::parse_bench_json`, an injected trial
//! panic is counted as a failure, and `--compare` gives the right verdicts.

#[path = "../json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark")
}

fn def() -> Json {
    Json::parse(BENCHMARK_JSON).unwrap()
}

fn names(def: &Json, key: &str) -> Vec<(String, String)> {
    def.get(key)
        .unwrap()
        .as_array()
        .iter()
        .map(|m| {
            let text = |k| m.get(k).unwrap().as_str().unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Splits all-workloads output into `(workload, lines)` sections.
fn sections(stdout: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in stdout.lines() {
        if let Some(name) = line.strip_prefix("== ") {
            out.push((name.to_string(), Vec::new()));
        } else if let Some((_, lines)) = out.last_mut() {
            lines.push(line.to_string());
        }
    }
    out
}

fn digest_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.contains(": digest "))
        .cloned()
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_traced_digests_match() {
    let def = def();
    let workloads: Vec<String> = def
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    let dir = scratch("all");
    let mut digests = Vec::new();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let runs = dir.join(format!("runs-{trace}.json"));
        let out = benchmark(&[
            "--scale",
            "smoke",
            "--seconds",
            "0",
            "--seed",
            "7",
            "--trace",
            trace,
            "--scratch",
            dir.to_str().unwrap(),
            "--json",
            runs.to_str().unwrap(),
            "--commit",
            "smoke",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "trace {trace}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let sections = sections(&stdout);
        let seen: Vec<&String> = sections.iter().map(|(w, _)| w).collect();
        assert_eq!(seen, workloads.iter().collect::<Vec<_>>());
        let expected = names(&def, key);
        for (workload, lines) in &sections {
            let result = Json::parse(lines.last().unwrap()).unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
            let metrics = result.get("metrics").unwrap();
            let Json::Obj(fields) = metrics else {
                panic!("{workload}: metrics is not an object")
            };
            assert_eq!(fields.len(), expected.len(), "{workload}");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}"));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(unit.as_str()));
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite());
                if trace == "0" {
                    assert!(value > 0.0, "{workload}/{name} must never be 0");
                }
                let printed = format!("{workload}/{name} = ");
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&printed) && l.contains(&format!(" {unit} "))),
                    "{printed} not printed with its unit"
                );
            }
            if trace == "1" {
                assert!(dir
                    .join("trace")
                    .join(format!("{workload}.spans.jsonl"))
                    .is_file());
            }
        }
        digests.push(
            sections
                .iter()
                .map(|(_, lines)| digest_lines(lines))
                .collect::<Vec<_>>(),
        );

        let rows = distill_harness::parse_bench_json(&std::fs::read_to_string(&runs).unwrap())
            .expect("run-set rows parse as bench rows");
        assert_eq!(rows.len(), workloads.len() * expected.len());
        for (row, (workload, (name, unit))) in rows.iter().zip(
            workloads
                .iter()
                .flat_map(|w| expected.iter().map(move |m| (w, m))),
        ) {
            assert_eq!(row.id, format!("{workload}/{name}"));
            assert_eq!(&row.unit, unit);
        }
        let env = Json::parse(&std::fs::read_to_string(&runs).unwrap()).unwrap();
        let env = env.get("env").unwrap();
        for field in ["nproc", "profile", "seed", "scale", "threads", "commit"] {
            assert!(env.get(field).is_some(), "env lacks {field}");
        }
    }
    assert_eq!(
        digests[0], digests[1],
        "traced runs must reproduce the untraced digests"
    );
    assert!(digests[0].iter().all(|d| d.len() == 1));
}

#[test]
fn injected_panic_is_a_failure_not_a_crash() {
    let dir = scratch("panic");
    let out = benchmark(&[
        "--workload",
        "e1_sweep",
        "--scale",
        "smoke",
        "--seconds",
        "0",
        "--inject-panic",
        "3",
        "--scratch",
        dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("failed").unwrap().as_f64().unwrap() >= 1.0);
    let frac = stdout
        .lines()
        .find_map(|l| l.strip_prefix("e1_sweep/failed_frac = "))
        .and_then(|v| v.split(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap();
    assert!(frac > 0.0);
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "yes"],
        &["--seconds"],
        &["--frobnicate"],
    ] {
        assert_eq!(benchmark(args).status.code(), Some(2), "{args:?}");
    }
}

/// A run set: `samples` runs of one value each per end-to-end metric of
/// `e1_sweep`.
fn run_set(path: &Path, values: &[f64]) {
    let rows: Vec<String> = ["ops_per_s", "setup_s", "peak_heap_mb"]
        .iter()
        .flat_map(|m| {
            values.iter().map(move |v| {
                format!(
                    "{{\"id\": \"e1_sweep/{m}\", \"kind\": \"value\", \"unit\": \"x\", \
                     \"mean_ns\": {v}, \"median_ns\": {v}, \"min_ns\": {v}, \"samples\": 1}}"
                )
            })
        })
        .collect();
    std::fs::write(path, format!("{{\"benches\": [{}]}}", rows.join(", "))).unwrap();
}

#[test]
fn compare_gives_same_worse_and_unresolved_verdicts() {
    let dir = scratch("compare");
    let base = dir.join("base.json");
    run_set(&base, &[100.0, 101.0, 99.0, 100.0, 100.5]);
    let verdicts = |other: &[f64]| {
        let path = dir.join("other.json");
        run_set(&path, other);
        let out = benchmark(&["--compare", base.to_str().unwrap(), path.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let verdict = |metric: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(&format!("e1_sweep/{metric} ")))
                .and_then(|l| l.split_whitespace().last())
                .unwrap()
                .to_string()
        };
        (out.status.code(), verdict("ops_per_s"), verdict("setup_s"))
    };
    assert_eq!(
        verdicts(&[100.0, 99.5, 100.5, 101.0, 99.0]),
        (Some(0), "same".into(), "same".into())
    );
    // Halving a higher-is-better metric is worse; halving a lower-is-better
    // one is better.
    assert_eq!(
        verdicts(&[50.0, 50.5, 49.5, 50.0, 50.2]),
        (Some(1), "worse".into(), "better".into())
    );
    assert_eq!(
        verdicts(&[10.0, 100.0, 300.0, 60.0, 200.0]),
        (Some(1), "unresolved".into(), "unresolved".into())
    );
}
