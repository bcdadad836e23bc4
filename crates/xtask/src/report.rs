//! Structured diagnostics, the suppression ledger, and the baseline ratchet.
//!
//! `xtask lint --format json` emits a deterministic document (sorted
//! entries, stable key order, no timestamps) so CI can archive diagnostics
//! as an artifact and diff them across commits. The committed
//! `lint-baseline.json` holds per-rule violation counts and suppression
//! counts per allowance kind and per `#[expect]`ed lint; `--baseline`
//! compares the current run against it and
//! fails only when a count *exceeds* the baseline — a ratchet, not a
//! threshold: the burndown may shrink freely, and shrinking prints a hint
//! to re-bless so the ratchet tightens.
//!
//! Everything here is hand-rolled (no serde): the schema is flat, the
//! writer is ~60 lines, and xtask stays dependency-free and offline.

use std::collections::BTreeMap;

use crate::{LintError, LintReport, ALL_RULES, SUPPRESSION_KINDS};

/// Aggregated per-rule / per-kind counts for ratcheting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// Violations keyed by rule code (`"D3"`, `"D4"`, `"D6"`, `"D7"`), all
    /// rules present.
    pub violations: BTreeMap<String, u64>,
    /// Suppressions keyed by allowance kind (`"alloc"`, `"rng"`, both
    /// present) or by the lint an `#[expect]` names.
    pub suppressions: BTreeMap<String, u64>,
}

impl Counts {
    /// Tallies a report. Every known rule code and allowance kind is
    /// present in the maps (zero-filled), so ratchets and JSON output are
    /// schema-stable as the burndown empties.
    pub fn of(report: &LintReport) -> Self {
        let mut counts = Self::default();
        for rule in ALL_RULES {
            counts.violations.insert(rule.code().to_string(), 0);
        }
        for kind in SUPPRESSION_KINDS {
            counts.suppressions.insert((*kind).to_string(), 0);
        }
        for v in &report.violations {
            *counts
                .violations
                .entry(v.rule.code().to_string())
                .or_insert(0) += 1;
        }
        for s in &report.suppressions {
            *counts.suppressions.entry(s.kind.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Sum of all per-rule violation counts.
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Sum of all per-kind suppression counts.
    pub fn total_suppressions(&self) -> u64 {
        self.suppressions.values().sum()
    }
}

/// Escapes a string for inclusion in a JSON document.
///
/// The same escaper as `distill_harness::json_escape`, kept as a copy
/// because xtask has no dependencies: the linter builds and runs without
/// compiling the crates it checks.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn span_json(span: Option<(usize, usize)>) -> String {
    span.map_or_else(|| "null".to_string(), |(a, b)| format!("[{a}, {b}]"))
}

fn rule_json(rule: Option<crate::Rule>) -> String {
    rule.map_or_else(|| "null".to_string(), |r| format!("\"{}\"", r.code()))
}

fn counts_obj(map: &BTreeMap<String, u64>, indent: &str) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{indent}  \"{}\": {v}", json_escape(k)))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Renders the full diagnostics document. Deterministic: the caller sorts
/// the report; maps are `BTreeMap`s; there are no timestamps or absolute
/// paths.
pub fn to_json(report: &LintReport) -> String {
    let counts = Counts::of(report);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"distill-lint\",\n");
    out.push_str("  \"version\": 3,\n");
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"span\": {}, \"message\": \"{}\"}}",
            v.rule.code(),
            json_escape(&v.file.display().to_string()),
            v.line,
            span_json(v.span),
            json_escape(&v.message)
        ));
    }
    if report.violations.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}    {{\"rule\": {}, \"kind\": \"{}\", \"file\": \"{}\", \"line\": {}, \"span\": {}, \"reason\": \"{}\"}}",
            rule_json(s.rule),
            json_escape(&s.kind),
            json_escape(&s.file.display().to_string()),
            s.line,
            span_json(s.span),
            json_escape(&s.reason)
        ));
    }
    if report.suppressions.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!(
        "  \"counts\": {{\n    \"violations\": {},\n    \"suppressions\": {}\n  }}\n",
        counts_obj(&counts.violations, "    "),
        counts_obj(&counts.suppressions, "    ")
    ));
    out.push_str("}\n");
    out
}

/// Renders the baseline document for `--write-baseline`.
pub fn baseline_json(counts: &Counts) -> String {
    format!(
        "{{\n  \"version\": 1,\n  \"violations\": {},\n  \"suppressions\": {}\n}}\n",
        counts_obj(&counts.violations, "  "),
        counts_obj(&counts.suppressions, "  ")
    )
}

/// Parses a baseline document. Minimal scanner for the flat schema this
/// tool writes: two named sections of `"key": number` pairs. Unknown keys
/// are kept (forward-compatible); a malformed document is an error rather
/// than a silently-empty baseline.
pub fn parse_baseline(text: &str) -> Result<Counts, LintError> {
    let mut counts = Counts::default();
    let mut section: Option<bool> = None; // Some(true) = violations
    let mut found_any = false;
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            if line.starts_with('}') {
                section = None;
            }
            continue;
        };
        let Some((key, tail)) = rest.split_once('"') else {
            continue;
        };
        let tail = tail.trim_start().strip_prefix(':').map(str::trim_start);
        match key {
            "violations" => {
                section = Some(true);
                continue;
            }
            "suppressions" => {
                section = Some(false);
                continue;
            }
            _ => {}
        }
        let Some(value) = tail else { continue };
        if let Ok(n) = value.parse::<u64>() {
            match section {
                Some(true) => {
                    counts.violations.insert(key.to_string(), n);
                    found_any = true;
                }
                Some(false) => {
                    counts.suppressions.insert(key.to_string(), n);
                    found_any = true;
                }
                None => {} // top-level scalars like "version"
            }
        }
    }
    if !found_any {
        return Err(LintError(
            "baseline has no violation/suppression counts; regenerate with \
             `xtask lint --write-baseline lint-baseline.json`"
                .to_string(),
        ));
    }
    Ok(counts)
}

/// One ratchet breach: a count that exceeds its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// The rule code (violations) or suppression kind that grew.
    pub key: String,
    /// The count in the current run.
    pub current: u64,
    /// The committed baseline count it exceeds.
    pub baseline: u64,
    /// Whether this key counts violations (true) or suppressions (false).
    pub is_violation: bool,
}

impl std::fmt::Display for Breach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.is_violation {
            "violations"
        } else {
            "suppressions"
        };
        write!(
            f,
            "{} {}: {} exceeds baseline {}",
            self.key, what, self.current, self.baseline
        )
    }
}

/// Compares current counts against the baseline. Returns the breaches
/// (counts above baseline) and whether anything shrank (a hint to
/// re-bless so the ratchet tightens). Keys absent from the baseline
/// default to 0 — a brand-new rule starts fully ratcheted.
pub fn ratchet(current: &Counts, baseline: &Counts) -> (Vec<Breach>, bool) {
    let mut breaches = Vec::new();
    let mut shrank = false;
    for (key, &cur) in &current.violations {
        let base = baseline.violations.get(key).copied().unwrap_or(0);
        if cur > base {
            breaches.push(Breach {
                key: key.clone(),
                current: cur,
                baseline: base,
                is_violation: true,
            });
        } else if cur < base {
            shrank = true;
        }
    }
    for (key, &cur) in &current.suppressions {
        let base = baseline.suppressions.get(key).copied().unwrap_or(0);
        if cur > base {
            breaches.push(Breach {
                key: key.clone(),
                current: cur,
                baseline: base,
                is_violation: false,
            });
        } else if cur < base {
            shrank = true;
        }
    }
    (breaches, shrank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rule, Suppression, Violation};
    use std::path::PathBuf;

    fn sample_report() -> LintReport {
        LintReport {
            violations: vec![Violation {
                rule: Rule::HotPathAlloc,
                file: PathBuf::from("member/src/lib.rs"),
                line: 4,
                span: Some((13, 19)),
                message: "allocating construct `Vec::new`".to_string(),
            }],
            suppressions: vec![
                Suppression {
                    rule: Some(Rule::RngDiscipline),
                    kind: "rng".to_string(),
                    file: PathBuf::from("member/src/lib.rs"),
                    line: 9,
                    span: Some((5, 11)),
                    reason: "replays the stream on purpose".to_string(),
                },
                Suppression {
                    rule: None,
                    kind: "clippy::cast_sign_loss".to_string(),
                    file: PathBuf::from("member/src/lib.rs"),
                    line: 12,
                    span: None,
                    reason: "the operand is non-negative".to_string(),
                },
            ],
        }
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let report = sample_report();
        let a = to_json(&report);
        let b = to_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("\"tool\": \"distill-lint\""));
        assert!(a.contains("\"rule\": \"D7\""));
        assert!(a.contains("\"span\": [13, 19]"));
        assert!(a.contains("\"kind\": \"rng\""));
        assert!(a.contains("\"rule\": null, \"kind\": \"clippy::cast_sign_loss\""));
        assert!(a.contains("\"clippy::cast_sign_loss\": 1"));
        // Every rule and kind appears in counts even at zero.
        for code in ["D3", "D4", "D6", "D7"] {
            assert!(a.contains(&format!("\"{code}\":")), "missing {code}");
        }
        for kind in SUPPRESSION_KINDS {
            assert!(a.contains(&format!("\"{kind}\":")), "missing {kind}");
        }
    }

    #[test]
    fn baseline_round_trips() {
        let counts = Counts::of(&sample_report());
        let text = baseline_json(&counts);
        let parsed = parse_baseline(&text).expect("parses");
        assert_eq!(parsed.violations, counts.violations);
        assert_eq!(parsed.suppressions, counts.suppressions);
    }

    #[test]
    fn empty_baseline_is_an_error_not_a_free_pass() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json at all").is_err());
    }

    #[test]
    fn ratchet_fails_only_on_growth() {
        let current = Counts::of(&sample_report());
        // Equal baseline: clean.
        let (breaches, shrank) = ratchet(&current, &current);
        assert!(breaches.is_empty());
        assert!(!shrank);
        // Baseline above current: clean, but flags shrinkage.
        let mut loose = current.clone();
        loose.violations.insert("D7".to_string(), 5);
        let (breaches, shrank) = ratchet(&current, &loose);
        assert!(breaches.is_empty());
        assert!(shrank);
        // Baseline below current: breach, attributed to the right key.
        let mut tight = current.clone();
        tight.violations.insert("D7".to_string(), 0);
        let (breaches, _) = ratchet(&current, &tight);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].key, "D7");
        assert!(breaches[0].is_violation);
        assert!(breaches[0].to_string().contains("exceeds baseline"));
    }

    #[test]
    fn new_rule_missing_from_baseline_starts_ratcheted() {
        let current = Counts::of(&sample_report());
        let empty = parse_baseline("{\n \"violations\": {\n \"D3\": 0\n }\n}").expect("parses");
        let (breaches, _) = ratchet(&current, &empty);
        assert!(breaches.iter().any(|b| b.key == "D7"));
        assert!(breaches.iter().any(|b| b.key == "rng" && !b.is_violation));
        // A lint first `#[expect]`ed after the baseline was blessed breaches.
        assert!(breaches
            .iter()
            .any(|b| b.key == "clippy::cast_sign_loss" && !b.is_violation));
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
