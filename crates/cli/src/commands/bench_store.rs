//! `bench-store`.

use super::{err, CliError};
use crate::args::Args;
use distill_analysis::{fmt_f, Summary, Table};
use distill_harness::json_escape;

pub(super) const BENCH_STORE_FLAGS: &[&str] = &[
    "store",
    "json",
    "commit",
    "timestamp",
    "bench",
    "tolerance",
    "format",
    "inject-regression",
];

/// A float as a JSON token: finite values print their shortest round-trip
/// form, everything else (NaN, ±inf, absent) is `null` — strict parsers
/// reject bare non-finite literals.
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Reads and parses every `--json` bench dump (comma-separated paths).
fn load_bench_rows(args: &Args) -> Result<Vec<distill_harness::BenchRow>, CliError> {
    let list = args
        .flags
        .get("json")
        .ok_or_else(|| err("bench-store: needs --json <file[,file...]>"))?;
    let mut rows = Vec::new();
    for path in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| err(format!("--json {path}: {e}")))?;
        rows.extend(
            distill_harness::parse_bench_json(&text).map_err(|e| err(format!("{path}: {e}")))?,
        );
    }
    if rows.is_empty() {
        return Err(err("bench-store: no bench rows in the --json input"));
    }
    Ok(rows)
}

/// `distill bench-store` — the persistent experiment store and trend gate.
pub fn run_bench_store(args: &Args) -> Result<String, CliError> {
    args.ensure_known(BENCH_STORE_FLAGS)?;
    let format = args.str_or("format", "table");
    if format != "table" && format != "json" {
        return Err(err(format!(
            "--format {format:?} not recognized (table | json)"
        )));
    }
    let store_path = args
        .flags
        .get("store")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| err("bench-store: needs --store <path>"))?;
    match args.positional.first().map(String::as_str) {
        Some("append") => bench_store_append(args, &store_path, &format),
        Some("query") => bench_store_query(args, &store_path, &format),
        Some("diff") => bench_store_diff(args, &store_path, &format),
        other => Err(err(format!(
            "bench-store: unknown action {:?} (append | query | diff)",
            other.unwrap_or("<none>")
        ))),
    }
}

fn bench_store_append(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let commit = args
        .flags
        .get("commit")
        .ok_or_else(|| err("bench-store append: needs --commit <label>"))?;
    // Deterministic by default: the caller supplies the timestamp (CI passes
    // a fixed one), so re-running an append never invents wall-clock state.
    let timestamp: u64 = args.get_or("timestamp", 0)?;
    let records: Vec<_> = load_bench_rows(args)?
        .into_iter()
        .map(|row| row.into_record(commit, timestamp))
        .collect();
    let outcome = distill_harness::ExperimentStore::append(store_path, &records)
        .map_err(|e| err(e.to_string()))?;
    if format == "json" {
        return Ok(format!(
            "{{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \
             \"store\": \"{}\",\n  \"existing\": {},\n  \"added\": {},\n  \"total\": {}\n}}",
            json_escape(&store_path.display().to_string()),
            outcome.existing,
            outcome.added,
            outcome.store.len(),
        ));
    }
    let mut table = Table::new(
        format!("bench-store append — {}", store_path.display()),
        &["metric", "value"],
    );
    table.row_owned(vec!["records before".into(), outcome.existing.to_string()]);
    table.row_owned(vec!["records added".into(), outcome.added.to_string()]);
    table.row_owned(vec![
        "records total".into(),
        outcome.store.len().to_string(),
    ]);
    table.row_owned(vec!["commit".into(), commit.clone()]);
    table.row_owned(vec!["timestamp".into(), timestamp.to_string()]);
    Ok(table.render())
}

fn bench_store_query(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let store =
        distill_harness::ExperimentStore::load(store_path).map_err(|e| err(e.to_string()))?;
    let filter = args.flags.get("bench");
    let records: Vec<_> = store
        .records()
        .iter()
        .filter(|r| filter.is_none_or(|f| &r.bench_id == f))
        .collect();
    if format == "json" {
        let mut out = String::from(
            "{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \"records\": [",
        );
        for (i, r) in records.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"bench_id\": \"{}\", \"commit\": \"{}\", \"timestamp\": {}, \
                 \"kind\": \"{}\", \"unit\": \"{}\", \"mean\": {}, \"median\": {}, \
                 \"min\": {}, \"samples\": {}}}{}",
                json_escape(&r.bench_id),
                json_escape(&r.commit),
                r.timestamp,
                r.kind,
                json_escape(&r.unit),
                json_num(Some(r.mean)),
                json_num(Some(r.median)),
                json_num(Some(r.min)),
                r.samples,
                if i + 1 < records.len() { "," } else { "" },
            ));
        }
        out.push_str(if records.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str(&format!("  \"total\": {}\n}}", records.len()));
        return Ok(out);
    }
    let mut table = Table::new(
        format!(
            "bench-store query — {} ({} record(s))",
            store_path.display(),
            records.len()
        ),
        &[
            "bench", "commit", "ts", "kind", "unit", "min", "median", "mean", "samples",
        ],
    );
    for r in &records {
        table.row_owned(vec![
            r.bench_id.clone(),
            r.commit.clone(),
            r.timestamp.to_string(),
            r.kind.to_string(),
            r.unit.clone(),
            fmt_f(r.min),
            fmt_f(r.median),
            fmt_f(r.mean),
            r.samples.to_string(),
        ]);
    }
    let mut output = table.render();

    // Per-bench history statistics over the timed `min` series, routed
    // through the Option-returning `analysis` stats: empty or non-finite
    // series (a single degenerate record) come back `None` and render as
    // `-` cells instead of NaN verdicts.
    let mut by_bench: std::collections::BTreeMap<&str, Vec<f64>> =
        std::collections::BTreeMap::new();
    for r in &records {
        if r.kind == distill_harness::RowKind::Timed {
            by_bench.entry(&r.bench_id).or_default().push(r.min);
        }
    }
    if !by_bench.is_empty() {
        let mut stats = Table::new(
            "per-bench min_ns history (timed rows)",
            &["bench", "points", "best", "mean", "ci95 half-width"],
        );
        for (bench, mins) in &by_bench {
            let summary = Summary::of(mins);
            let ci = distill_analysis::ci95(mins);
            stats.row_owned(vec![
                (*bench).to_string(),
                mins.len().to_string(),
                fmt_f(summary.map_or(f64::NAN, |s| s.min)),
                fmt_f(summary.map_or(f64::NAN, |s| s.mean)),
                fmt_f(ci.map_or(f64::NAN, |c| c.half_width())),
            ]);
        }
        output.push('\n');
        output.push_str(&stats.render());
    }
    Ok(output)
}

fn bench_store_diff(
    args: &Args,
    store_path: &std::path::Path,
    format: &str,
) -> Result<String, CliError> {
    let tolerance: f64 = args.get_or("tolerance", 0.5)?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(err("--tolerance must be a finite fraction >= 0"));
    }
    // CI self-test hook (mirrors sweep's --inject-panic): scale the current
    // timed rows so the gate demonstrably fails on a known-bad run.
    let inject: f64 = args.get_or("inject-regression", 1.0)?;
    if !inject.is_finite() || inject <= 0.0 {
        return Err(err("--inject-regression must be a finite factor > 0"));
    }
    let commit = args.str_or("commit", "current");
    let store =
        distill_harness::ExperimentStore::load(store_path).map_err(|e| err(e.to_string()))?;
    let mut current: Vec<_> = load_bench_rows(args)?
        .into_iter()
        .map(|row| row.into_record(&commit, 0))
        .collect();
    if inject != 1.0 {
        for r in &mut current {
            if r.kind == distill_harness::RowKind::Timed {
                r.mean *= inject;
                r.median *= inject;
                r.min *= inject;
            }
        }
    }
    let gate = distill_harness::TrendGate { tolerance };
    let verdicts = gate.evaluate(&store, &current);
    let regressed = verdicts
        .iter()
        .filter(|v| v.status == distill_harness::TrendStatus::Regressed)
        .count();

    let output = if format == "json" {
        let mut out = format!(
            "{{\n  \"tool\": \"distill-bench-store\",\n  \"version\": 1,\n  \
             \"tolerance\": {},\n  \"regressed\": {regressed},\n  \"verdicts\": [",
            json_num(Some(tolerance)),
        );
        for (i, v) in verdicts.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"bench_id\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \
                 \"baseline_points\": {}, \"baseline_min\": {}, \"baseline_median\": {}, \
                 \"current_min\": {}, \"current_median\": {}, \"min_ratio\": {}, \
                 \"status\": \"{}\"}}{}",
                json_escape(&v.bench_id),
                v.kind,
                json_escape(&v.unit),
                v.baseline_points,
                json_num(v.baseline_min),
                json_num(v.baseline_median),
                json_num(Some(v.current_min)),
                json_num(Some(v.current_median)),
                json_num(v.min_ratio),
                v.status,
                if i + 1 < verdicts.len() { "," } else { "" },
            ));
        }
        out.push_str(if verdicts.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        out
    } else {
        let mut table = Table::new(
            format!(
                "bench-store diff — {} vs {} (tolerance {:.0}%)",
                commit,
                store_path.display(),
                tolerance * 100.0
            ),
            &[
                "bench", "kind", "pts", "base min", "cur min", "ratio", "status",
            ],
        );
        for v in &verdicts {
            table.row_owned(vec![
                v.bench_id.clone(),
                v.kind.to_string(),
                v.baseline_points.to_string(),
                fmt_f(v.baseline_min.unwrap_or(f64::NAN)),
                fmt_f(v.current_min),
                fmt_f(v.min_ratio.unwrap_or(f64::NAN)),
                v.status.to_string(),
            ]);
        }
        table.render()
    };
    if regressed > 0 {
        return Err(CliError::Regression {
            output,
            count: regressed,
        });
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use crate::commands::tests::parse;

    // ---- bench-store --------------------------------------------------

    fn bench_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "distill-cli-bench-store-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_bench_json(dir: &std::path::Path, name: &str, min: f64, median: f64) -> String {
        let path = dir.join(name);
        let text = format!(
            "{{\"benches\": [\
             {{\"id\": \"engine/round\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": {mean}, \"median_ns\": {median}, \"min_ns\": {min}, \
              \"samples\": 10, \"throughput_per_sec\": 1.0}},\
             {{\"id\": \"alloc/per_round\", \"kind\": \"value\", \"unit\": \"allocs/round\", \
              \"mean_ns\": 0.0, \"median_ns\": 0.0, \"min_ns\": 0.0, \
              \"samples\": 1, \"throughput_per_sec\": 0.0}}\
             ]}}",
            mean = (min + median) / 2.0,
        );
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    #[test]
    fn bench_store_append_twice_is_bit_identical_and_diff_passes() {
        let dir = bench_store_dir("idempotent");
        let store = dir.join("history.store").display().to_string();
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        let append = |_: ()| {
            dispatch(&parse(&[
                "bench-store",
                "append",
                "--store",
                &store,
                "--json",
                &json,
                "--commit",
                "seed",
            ]))
            .unwrap()
        };
        let out = append(());
        assert!(out.contains("records added"));
        let bytes_once = std::fs::read(&store).unwrap();
        append(());
        assert_eq!(
            std::fs::read(&store).unwrap(),
            bytes_once,
            "second append of the same run must leave the store bit-identical"
        );
        // Re-run of the same commit passes the gate: no regression.
        let out = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(out.contains("pass"));
        assert!(out.contains("value (not gated)"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_diff_fails_on_injected_regression_with_exit_code_4_semantics() {
        let dir = bench_store_dir("inject");
        let store = dir.join("history.store").display().to_string();
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json,
            "--commit",
            "seed",
        ]))
        .unwrap();
        // 3x slower on min and median: past the 50% band.
        let result = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--inject-regression",
            "3.0",
        ]));
        match result {
            Err(CliError::Regression { output, count }) => {
                assert_eq!(count, 1, "only the timed row regresses");
                assert!(output.contains("REGRESSED"));
                // The injected factor must never push the value row through
                // the gate in ns terms.
                assert!(output.contains("value (not gated)"));
            }
            other => panic!("expected Regression, got {other:?}"),
        }
        // A wider tolerance absorbs the same injection.
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--inject-regression",
            "3.0",
            "--tolerance",
            "5.0",
        ]))
        .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression test: a single-sample, zero-variance, or
    /// degenerate (zero / non-finite) series must render `-` cells and an
    /// `indeterminate` verdict — never NaN — in both query and diff output.
    #[test]
    fn bench_store_degenerate_series_render_dashes_not_nan() {
        let dir = bench_store_dir("degenerate");
        let store = dir.join("history.store").display().to_string();
        // Healthy single-sample history for two benches (zero variance)...
        let seed = dir.join("seed.json");
        std::fs::write(
            &seed,
            "{\"benches\": [\
             {\"id\": \"degenerate/zero\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 10.0, \"median_ns\": 10.0, \"min_ns\": 10.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0},\
             {\"id\": \"healthy/one\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 50.0, \"median_ns\": 50.0, \"min_ns\": 50.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0}\
             ]}",
        )
        .unwrap();
        let seed = seed.display().to_string();
        // ...and a current run where one bench's timer collapsed to 0 ns.
        let path = dir.join("run.json");
        std::fs::write(
            &path,
            "{\"benches\": [\
             {\"id\": \"degenerate/zero\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 0.0, \"median_ns\": 0.0, \"min_ns\": 0.0, \
              \"samples\": 1, \"throughput_per_sec\": 0.0},\
             {\"id\": \"healthy/one\", \"kind\": \"timed\", \"unit\": \"ns\", \
              \"mean_ns\": 50.0, \"median_ns\": 50.0, \"min_ns\": 50.0, \
              \"samples\": 1, \"throughput_per_sec\": 1.0}\
             ]}",
        )
        .unwrap();
        let json = path.display().to_string();
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &seed,
            "--commit",
            "seed",
        ]))
        .unwrap();
        // The degenerate run itself also lands in the store, so the query
        // path sees a series containing a zero (Summary still finite) and a
        // bench history of one point (ci95 half-width 0, never NaN).
        dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json,
            "--commit",
            "zeroed",
        ]))
        .unwrap();
        let query = dispatch(&parse(&["bench-store", "query", "--store", &store])).unwrap();
        assert!(
            !query.contains("NaN"),
            "query must never print NaN:\n{query}"
        );
        let diff = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(!diff.contains("NaN"), "diff must never print NaN:\n{diff}");
        assert!(diff.contains("indeterminate"));
        assert!(diff.contains("pass"), "the healthy bench still passes");
        // JSON output: degenerate ratios are null, not NaN.
        let diff_json = dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(!diff_json.contains("NaN"));
        assert!(diff_json.contains("\"min_ratio\": null"));
        assert!(diff_json.contains("\"status\": \"indeterminate\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_query_lists_history_and_filters() {
        let dir = bench_store_dir("query");
        let store = dir.join("history.store").display().to_string();
        let a = write_bench_json(&dir, "a.json", 100.0, 120.0);
        let b = write_bench_json(&dir, "b.json", 90.0, 110.0);
        for (json, commit) in [(&a, "c1"), (&b, "c2")] {
            dispatch(&parse(&[
                "bench-store",
                "append",
                "--store",
                &store,
                "--json",
                json,
                "--commit",
                commit,
            ]))
            .unwrap();
        }
        let out = dispatch(&parse(&["bench-store", "query", "--store", &store])).unwrap();
        assert!(out.contains("4 record(s)"));
        assert!(out.contains("per-bench min_ns history"));
        let filtered = dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--bench",
            "engine/round",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(filtered.contains("\"total\": 2"));
        assert!(filtered.contains("\"commit\": \"c1\""));
        assert!(filtered.contains("\"commit\": \"c2\""));
        assert!(!filtered.contains("alloc/per_round"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `bench-store --format json` escapes quotes, backslashes and control
    /// characters in ids, units and commit labels; both documents are
    /// pinned byte for byte.
    #[test]
    fn bench_store_json_output_is_pinned() {
        let dir = bench_store_dir("escapes");
        let store = dir.join("history.store").display().to_string();
        let json = dir.join("run.json");
        std::fs::write(
            &json,
            r#"{"benches": [{"id": "esc/\"q\"\\x\u0001\t/é", "kind": "timed", "unit": "n\"s", "mean_ns": 110.0, "median_ns": 120.0, "min_ns": 100.0, "samples": 10, "throughput_per_sec": 1.0}, {"id": "alloc/per_round", "kind": "value", "unit": "allocs/round", "mean_ns": 0.0, "median_ns": 0.0, "min_ns": 0.0, "samples": 1, "throughput_per_sec": 0.0}]}"#,
        )
        .unwrap();
        let json = json.display().to_string();
        let bench_store = |argv: &[&str]| {
            let argv = [&["bench-store", argv[0], "--store", &store], &argv[1..]].concat();
            dispatch(&parse(&argv)).unwrap()
        };
        let commit = "c\"1\\\t";
        bench_store(&[
            "append",
            "--json",
            &json,
            "--commit",
            commit,
            "--timestamp",
            "3",
        ]);
        let query = bench_store(&["query", "--format", "json"]);
        let expected = r#"{
  "tool": "distill-bench-store",
  "version": 1,
  "records": [
    {"bench_id": "alloc/per_round", "commit": "c\"1\\\t", "timestamp": 3, "kind": "value", "unit": "allocs/round", "mean": 0, "median": 0, "min": 0, "samples": 1},
    {"bench_id": "esc/\"q\"\\x\u0001\t/é", "commit": "c\"1\\\t", "timestamp": 3, "kind": "timed", "unit": "n\"s", "mean": 110, "median": 120, "min": 100, "samples": 10}
  ],
  "total": 2
}
"#;
        assert_eq!(format!("{query}\n"), expected);
        let diff = bench_store(&["diff", "--json", &json, "--format", "json"]);
        let expected = r#"{
  "tool": "distill-bench-store",
  "version": 1,
  "tolerance": 0.5,
  "regressed": 0,
  "verdicts": [
    {"bench_id": "alloc/per_round", "kind": "value", "unit": "allocs/round", "baseline_points": 0, "baseline_min": null, "baseline_median": null, "current_min": 0, "current_median": 0, "min_ratio": null, "status": "value (not gated)"},
    {"bench_id": "esc/\"q\"\\x\u0001\t/é", "kind": "timed", "unit": "n\"s", "baseline_points": 1, "baseline_min": 100, "baseline_median": 120, "current_min": 100, "current_median": 120, "min_ratio": 1, "status": "pass"}
  ]
}
"#;
        assert_eq!(format!("{diff}\n"), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_store_validates_input() {
        let dir = bench_store_dir("validate");
        let store = dir.join("history.store").display().to_string();
        // No action / unknown action / missing flags.
        assert!(dispatch(&parse(&["bench-store"])).is_err());
        assert!(dispatch(&parse(&["bench-store", "frobnicate", "--store", &store])).is_err());
        assert!(dispatch(&parse(&["bench-store", "append", "--store", &store])).is_err());
        // Append without --commit.
        let json = write_bench_json(&dir, "run.json", 100.0, 120.0);
        assert!(dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &json
        ]))
        .is_err());
        // Pre-schema JSON (no kind/unit) is refused with the typed message.
        let legacy = dir.join("legacy.json");
        std::fs::write(
            &legacy,
            "{\"benches\": [{\"id\": \"x\", \"mean_ns\": 1.0, \"median_ns\": 1.0, \
             \"min_ns\": 1.0, \"samples\": 1, \"throughput_per_sec\": 1.0}]}",
        )
        .unwrap();
        let legacy = legacy.display().to_string();
        let e = dispatch(&parse(&[
            "bench-store",
            "append",
            "--store",
            &store,
            "--json",
            &legacy,
            "--commit",
            "seed",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("kind"));
        // Diff against a missing store is a hard error, bad tolerance too.
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "bench-store",
            "diff",
            "--store",
            &store,
            "--json",
            &json,
            "--tolerance",
            "-1"
        ]))
        .is_err());
        // Unknown flags and formats are rejected.
        assert!(dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--bogus",
            "1"
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "bench-store",
            "query",
            "--store",
            &store,
            "--format",
            "xml"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
