//! Fixture and self-gate tests for distill-lint.
//!
//! The fixtures under `crates/xtask/fixtures/` are tiny workspaces.
//! `clean_ws` satisfies every rule and `bad_ws` violates every rule this
//! crate checks at least once; both are parsed as text, never compiled.
//! `clippy_ws` is compiled: CI runs clippy on it (see its manifest), and
//! here it must pass every rule this crate checks.

use std::path::{Path, PathBuf};
use xtask::{
    lint_source, lint_workspace, lint_workspace_report, report, LintConfig, Rule,
    REQUIRED_CLIPPY_DENIES,
};

fn fixture_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn config_at(root: PathBuf) -> LintConfig {
    LintConfig {
        root,
        protected: vec!["member".to_string()],
        unsafe_exempt: Vec::new(),
        rng_exempt: Vec::new(),
    }
}

fn fixture_config(name: &str) -> LintConfig {
    config_at(fixture_dir(name))
}

/// A writable copy of `clean_ws` under the test's scratch directory.
fn clean_copy(name: &str) -> std::io::Result<PathBuf> {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("member/src"))?;
    for file in ["Cargo.toml", "member/Cargo.toml", "member/src/lib.rs"] {
        std::fs::copy(fixture_dir("clean_ws").join(file), root.join(file))?;
    }
    Ok(root)
}

/// Rewrites `file` under `root` with every line `keep` rejects dropped.
fn drop_lines(root: &Path, file: &str, keep: impl Fn(&str) -> bool) -> std::io::Result<()> {
    let path = root.join(file);
    let text = std::fs::read_to_string(&path)?;
    let kept: Vec<&str> = text.lines().filter(|l| keep(l)).collect();
    std::fs::write(&path, kept.join("\n") + "\n")
}

fn render(violations: &[xtask::Violation]) -> String {
    violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn clean_fixture_passes_every_rule() {
    let violations = lint_workspace(&fixture_config("clean_ws")).unwrap();
    assert!(
        violations.is_empty(),
        "clean fixture must lint clean, got:\n{}",
        render(&violations)
    );
}

#[test]
fn bad_fixture_fires_every_rule() {
    let violations = lint_workspace(&fixture_config("bad_ws")).unwrap();
    let count = |rule: Rule| violations.iter().filter(|v| v.rule == rule).count();
    assert_eq!(count(Rule::LintPolicy), 2, "root table + member opt-in");
    assert_eq!(
        count(Rule::UnsafeHygiene),
        1,
        "member does not forbid unsafe code"
    );
    assert_eq!(
        count(Rule::RngDiscipline),
        2,
        "duplicate tag + wrapping tag: {violations:#?}"
    );
    assert_eq!(
        count(Rule::HotPathAlloc),
        2,
        "Vec::new + format! in a hot function: {violations:#?}"
    );
}

/// D4 demands every lint in the fixture's table: dropping any one of them
/// yields exactly one finding, and it names that lint.
#[test]
fn d4_names_each_missing_deny() {
    let table: Vec<String> = std::fs::read_to_string(fixture_dir("clean_ws").join("Cargo.toml"))
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_suffix(" = \"deny\""))
        .map(String::from)
        .collect();
    let mut required: Vec<&str> = REQUIRED_CLIPPY_DENIES.to_vec();
    required.sort_unstable();
    let mut listed: Vec<&str> = table.iter().map(String::as_str).collect();
    listed.sort_unstable();
    assert_eq!(listed, required, "clean_ws's table is the required one");
    for lint in &table {
        let root = clean_copy("d4-missing-deny").unwrap();
        let line = format!("{lint} = \"deny\"");
        drop_lines(&root, "Cargo.toml", |l| l != line).unwrap();
        let violations = lint_workspace(&config_at(root)).unwrap();
        assert_eq!(violations.len(), 1, "without {lint}: {violations:#?}");
        assert_eq!(violations[0].rule, Rule::LintPolicy);
        assert!(
            violations[0]
                .message
                .contains(&format!("must set {lint} = \"deny\"")),
            "the finding must name {lint}: {violations:#?}"
        );
    }
}

/// D3 reads manifests: a member forbids unsafe code by inheriting the
/// workspace table or by its own `[lints.rust]`, and nothing else counts.
#[test]
fn d3_needs_unsafe_code_forbidden_in_the_manifest() {
    let d3 = |root: &Path| -> Vec<PathBuf> {
        let mut config = config_at(root.to_path_buf());
        config.protected.clear();
        lint_workspace(&config)
            .unwrap()
            .into_iter()
            .filter(|v| v.rule == Rule::UnsafeHygiene)
            .map(|v| v.file)
            .collect()
    };
    let root = clean_copy("d3-inherited").unwrap();
    assert!(d3(&root).is_empty());
    drop_lines(&root, "Cargo.toml", |l| l != "unsafe_code = \"forbid\"").unwrap();
    assert_eq!(d3(&root), vec![PathBuf::from("member/Cargo.toml")]);

    let root = clean_copy("d3-own-table").unwrap();
    let member = root.join("member/Cargo.toml");
    let package = "[package]\nname = \"member\"\nversion = \"0.1.0\"\nedition = \"2021\"\n";
    std::fs::write(
        &member,
        format!("{package}\n[lints.rust]\nunsafe_code = \"forbid\"\n"),
    )
    .unwrap();
    assert!(d3(&root).is_empty(), "its own [lints.rust] is enough");
    std::fs::write(&member, package).unwrap();
    assert_eq!(d3(&root), vec![PathBuf::from("member/Cargo.toml")]);
}

/// The compiled fixture breaks only what clippy checks, and its table is
/// the one D4 demands of the repository.
#[test]
fn clippy_fixture_passes_every_rule_this_crate_checks() {
    let violations = lint_workspace(&fixture_config("clippy_ws")).unwrap();
    assert!(violations.is_empty(), "{}", render(&violations));
}

#[test]
fn rng_discipline_reports_collision_and_wrap_sites() {
    let violations = lint_workspace(&fixture_config("bad_ws")).unwrap();
    let d6: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::RngDiscipline)
        .collect();
    // The duplicate fires on the *later* site in (file, line) order and
    // names the first one, so the report points back at lib.rs.
    assert!(
        d6.iter().any(|v| v.file.ends_with("streams.rs")
            && v.message.contains("collides")
            && v.message.contains("lib.rs")),
        "duplicate Aux tag must fire on streams.rs and cite lib.rs: {d6:#?}"
    );
    assert!(
        d6.iter()
            .any(|v| v.file.ends_with("streams.rs") && v.message.contains("reserved")),
        "wrapping Aux tag must cite the reserved namespaces: {d6:#?}"
    );
}

#[test]
fn hot_path_rule_fires_on_allocations_only_inside_hot_functions() {
    let violations = lint_workspace(&fixture_config("bad_ws")).unwrap();
    let d7: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::HotPathAlloc)
        .collect();
    assert!(
        d7.iter().any(|v| v.message.contains("Vec::new"))
            && d7.iter().any(|v| v.message.contains("`format`")),
        "both allocating constructs must fire: {d7:#?}"
    );
    // `cold_allocs` (lines 12–15) allocates the same way without firing D7.
    assert!(
        d7.iter().all(|v| v.line > 17),
        "D7 must only fire inside the annotated function: {d7:#?}"
    );
}

/// The ledger lists the comment allowances and the non-test `#[expect]`,
/// each with its reason; the `#[expect]` on the test module stays out.
#[test]
fn clean_fixture_justifications_become_suppressions() {
    let report = lint_workspace_report(&fixture_config("clean_ws")).unwrap();
    assert!(report.violations.is_empty());
    let ledger: Vec<String> = report.suppressions.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        ledger,
        vec![
            "member/src/lib.rs:20: expect(clippy::cast_possible_truncation) — \
             fixture lengths are tiny, far below u32::MAX",
            "D6 member/src/lib.rs:39: allow(rng) — fixture replays the same stream on purpose",
            "D7 member/src/lib.rs:55: allow(alloc) — fixture keeps one snapshot per call for the test",
        ]
    );
    let counts = report::Counts::of(&report);
    assert_eq!(counts.suppressions["clippy::cast_possible_truncation"], 1);
    assert!(!counts.suppressions.contains_key("clippy::disallowed_types"));
}

/// Pins the exact `--format json` output for the bad fixture. Regenerate
/// with the command in the snapshot header after intentional rule changes.
#[test]
fn bad_fixture_json_report_matches_golden_snapshot() {
    let report = lint_workspace_report(&fixture_config("bad_ws")).unwrap();
    let json = report::to_json(&report);
    let snapshot_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join("bad_ws.json");
    let snapshot = std::fs::read_to_string(&snapshot_path).expect("committed snapshot");
    assert_eq!(
        json.trim(),
        snapshot.trim(),
        "JSON diagnostics drifted from tests/snapshots/bad_ws.json; \
         if the change is intentional, update the snapshot"
    );
}

/// The acceptance demand for D7: injecting an allocation into the real
/// engine's `// lint: hot` `step` function must fail the gate.
#[test]
fn injected_allocation_in_hot_engine_step_fires() {
    let engine = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sim/src/engine.rs");
    let text = std::fs::read_to_string(&engine).expect("engine source");
    let rel = Path::new("crates/sim/src/engine.rs");

    // The pristine source passes (hot annotations plus justified sites).
    let mut clean = Vec::new();
    lint_source(&text, rel, &mut clean);
    assert!(
        clean.is_empty(),
        "pristine engine.rs must lint clean: {clean:#?}"
    );

    // One injected Vec::new() inside the hot body must fire D7.
    let needle = "pub fn step(&mut self) -> Result<(), SimError> {";
    let at = text.find(needle).expect("Engine::step header") + needle.len();
    let mut mutated = text.clone();
    mutated.insert_str(at, "\n        let _scratch: Vec<u32> = Vec::new();");
    let mut fired = Vec::new();
    lint_source(&mutated, rel, &mut fired);
    assert!(
        fired
            .iter()
            .any(|v| v.rule == Rule::HotPathAlloc && v.message.contains("Vec::new")),
        "injected allocation in hot Engine::step must fire D7: {fired:#?}"
    );
}

#[test]
fn bare_allowance_without_reason_does_not_suppress() {
    let violations = lint_workspace(&fixture_config("bad_ws")).unwrap();
    // The fixture's `Vec::new()` on line 20 sits directly under a
    // `// lint: allow(alloc)` comment with no reason — it must still fire.
    assert!(
        violations
            .iter()
            .any(|v| v.rule == Rule::HotPathAlloc && v.line == 20),
        "reasonless allowance must not suppress D7: {violations:#?}"
    );
}

#[test]
fn violations_are_deterministically_ordered() {
    let a = lint_workspace(&fixture_config("bad_ws")).unwrap();
    let b = lint_workspace(&fixture_config("bad_ws")).unwrap();
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_by(|x, y| {
        (&x.file, x.line, x.rule)
            .cmp(&(&y.file, y.line, y.rule))
            .then_with(|| x.message.cmp(&y.message))
    });
    assert_eq!(a, sorted, "report order must be (file, line, rule)");
}

#[test]
fn the_workspace_passes_its_own_gate() {
    // CARGO_MANIFEST_DIR = <repo>/crates/xtask; the repo root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let violations = lint_workspace(&LintConfig::for_repo(root)).unwrap();
    assert!(
        violations.is_empty(),
        "the workspace must pass distill-lint, got:\n{}",
        render(&violations)
    );
}
