//! distill-lint: a from-scratch, offline, span-aware checker for the
//! workspace invariants that types cannot express.
//!
//! The repository holds seven invariants (see `DESIGN.md` §9 and §14).
//! Clippy enforces four of them with types resolved, through the
//! `[workspace.lints]` table and `clippy.toml`, in every crate that sets
//! `lints.workspace = true`:
//!
//! * **D1 — panic-freedom**: `unwrap_used`, `expect_used`, `panic`,
//!   `unreachable`, `todo`, `unimplemented`, `dbg_macro`, and
//!   `std::panic::catch_unwind` as a disallowed method.
//! * **D2 — determinism**: `HashMap`, `HashSet`, `Instant` and `SystemTime`
//!   as disallowed types.
//! * **D5 — lossy casts**: `cast_possible_truncation`, `cast_sign_loss` and
//!   `cast_possible_wrap`. Integer→float casts are allowed.
//! * **D6's seeding ban**: `SeedableRng::{seed_from_u64, from_seed}` and
//!   `distill_sim::rng::{derive_seed, splitmix64}` as disallowed methods.
//!
//! A justified site carries `#[expect(<lint>, reason = "…")]`, which clippy
//! rejects without a reason and reports once it suppresses nothing.
//!
//! This crate checks the rest:
//!
//! * **D3 — unsafe hygiene.** Every workspace member (except the vendored
//!   compat stubs) forbids unsafe code in its manifest: it inherits
//!   `[workspace.lints.rust] unsafe_code = "forbid"` or sets it in its own
//!   `[lints.rust]`.
//! * **D4 — lint policy.** `[workspace.lints.clippy]` sets every lint the
//!   rules above rest on to `deny`, and every protected crate opts in with
//!   `lints.workspace = true`.
//! * **D6 — `Stream::Aux` tags** ([`rngrule`]). Literal `Stream::Aux(k)`
//!   tags are collected workspace-wide and checked for duplicates and
//!   reserved-namespace wraps.
//! * **D7 — hot-path allocation hygiene** ([`hotpath`]). Functions
//!   annotated `// lint: hot` must not contain allocating constructs;
//!   `debug_assert!` oracle bodies are span-masked out first.
//!
//! D6 and D7 sites are justified with `// lint: allow(rng|alloc) — <reason>`.
//! The suppression ledger lists those comments and every `#[expect]` in
//! protected non-test code, so the baseline ratchet fails on a new
//! suppression of either kind.
//!
//! The pass is *token-level with spans*, not a full parser: sources are
//! lexed just enough to blank out strings, char literals, and comments
//! (comments are kept on the side for justification lookup), `#[cfg(test)]`
//! spans are masked by brace matching, a lightweight item parser ([`items`])
//! recovers brace-matched `fn` and attribute spans, and the rules then run
//! word-boundary token scans over the result. That keeps the checker
//! dependency-free, offline, and fast.
//!
//! Diagnostics can be emitted as deterministic JSON ([`report::to_json`])
//! and ratcheted against a committed baseline ([`report::ratchet`]): CI
//! fails on any *new* violation or suppression while the burndown may
//! shrink freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod hotpath;
pub mod items;
pub mod report;
pub mod rngrule;

/// The invariants distill-lint checks itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D3: every non-exempt member forbids unsafe code in its manifest.
    UnsafeHygiene,
    /// D4: workspace lint policy present and inherited.
    LintPolicy,
    /// D6: `Aux` tags are literal, unique, and inside the `Aux` namespace.
    RngDiscipline,
    /// D7: no allocating constructs inside `// lint: hot` functions.
    HotPathAlloc,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 4] = [
    Rule::UnsafeHygiene,
    Rule::LintPolicy,
    Rule::RngDiscipline,
    Rule::HotPathAlloc,
];

/// Every suppression kind a `// lint: allow(<kind>) — <reason>` comment may
/// name, in report order.
pub const SUPPRESSION_KINDS: &[&str] = &["alloc", "rng"];

impl Rule {
    /// Short rule code used in reports.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeHygiene => "D3",
            Rule::LintPolicy => "D4",
            Rule::RngDiscipline => "D6",
            Rule::HotPathAlloc => "D7",
        }
    }
}

/// A single invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// File the violation is in, relative to the linted workspace root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// 1-based char columns `[start, end)` of the offending token on that
    /// line; `None` for whole-file/manifest findings.
    pub span: Option<(usize, usize)>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule.code(),
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// A justified site: a finding silenced by a `// lint: allow(<kind>) —
/// <reason>` comment, or an `#[expect(<lint>, reason = "…")]` attribute.
/// Tracked so the suppression ledger (`xtask lint --list-suppressions`)
/// and the baseline ratchet see the full burndown surface, not just the
/// failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule a comment allowance silences; `None` for an `#[expect]`,
    /// which clippy checks.
    pub rule: Option<Rule>,
    /// The allowance kind (`rng`, `alloc`), or the lint an `#[expect]`
    /// names (`clippy::cast_sign_loss`). The ratchet counts by this key.
    pub kind: String,
    /// File the suppressed site is in, relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number of the suppressed site (of the `#` for an
    /// `#[expect]`).
    pub line: usize,
    /// 1-based char columns `[start, end)` of the suppressed token; `None`
    /// for an `#[expect]`.
    pub span: Option<(usize, usize)>,
    /// The justification text.
    pub reason: String,
}

impl fmt::Display for Suppression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, line) = (self.file.display(), self.line);
        match self.rule {
            Some(rule) => write!(
                f,
                "{} {file}:{line}: allow({}) — {}",
                rule.code(),
                self.kind,
                self.reason
            ),
            None => write!(f, "{file}:{line}: expect({}) — {}", self.kind, self.reason),
        }
    }
}

/// The full outcome of a lint run: hard failures plus the justified sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Unjustified findings, sorted by `(file, line, rule, message)`.
    pub violations: Vec<Violation>,
    /// Justified findings, sorted by `(file, line, kind, reason)`.
    pub suppressions: Vec<Suppression>,
}

/// An I/O or manifest-shape error that prevented linting.
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

impl From<std::io::Error> for LintError {
    fn from(e: std::io::Error) -> Self {
        LintError(e.to_string())
    }
}

/// What to lint and how strictly.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Member paths (relative, as written in `members = [...]`) that must
    /// opt into the workspace lints and whose non-test sources the D6 and
    /// D7 scans and the suppression ledger cover.
    pub protected: Vec<String>,
    /// Member path prefixes exempt from the D3 unsafe-code check (vendored
    /// compat stubs that mirror upstream APIs).
    pub unsafe_exempt: Vec<String>,
    /// Root-relative source paths that *are* the RNG home: `Stream::Aux`
    /// pattern matches in these files are not construction sites.
    pub rng_exempt: Vec<String>,
}

impl LintConfig {
    /// The configuration for this repository's own workspace.
    pub fn for_repo(root: PathBuf) -> Self {
        LintConfig {
            root,
            protected: [
                "crates/core",
                "crates/billboard",
                "crates/sim",
                "crates/adversary",
                "crates/analysis",
                "crates/service",
                "crates/harness",
                "crates/xtask",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            unsafe_exempt: vec!["crates/compat".to_string()],
            rng_exempt: vec!["crates/sim/src/rng.rs".to_string()],
        }
    }
}

// ---------------------------------------------------------------------------
// Lexing: blank strings/chars/comments, keep comments for justifications.
// ---------------------------------------------------------------------------

/// A source file reduced to bare code plus its comments.
#[derive(Debug, Default)]
pub struct Stripped {
    /// The source with strings, char literals, and comments blanked to
    /// spaces. Newlines are preserved, so line numbers match the original.
    pub code: String,
    /// `(1-based line, comment text)` for every comment line encountered.
    pub comments: Vec<(usize, String)>,
}

/// Returns true when `c` can appear in a Rust identifier.
pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into [`Stripped`] form. Handles line and nested block
/// comments, plain/byte/raw strings, and char literals (telling them apart
/// from lifetimes by lookahead).
pub fn strip_source(src: &str) -> Stripped {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let mut text = String::new();
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                out.push(' ');
                i += 1;
            }
            comments.push((line, text));
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 0usize;
            let mut text = String::new();
            let mut text_line = line;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth = depth.saturating_sub(1);
                    text.push_str("*/");
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else if chars[i] == '\n' {
                    comments.push((text_line, std::mem::take(&mut text)));
                    out.push('\n');
                    line += 1;
                    text_line = line;
                    i += 1;
                } else {
                    text.push(chars[i]);
                    out.push(' ');
                    i += 1;
                }
            }
            comments.push((text_line, text));
            continue;
        }
        // Raw / byte / C string prefixes: r" r#" br" b" c" cr#" ...
        if (c == 'r' || c == 'b' || c == 'c') && (i == 0 || !is_ident(chars[i - 1])) {
            if let Some((quote_idx, hashes)) = string_after_prefix(&chars, i) {
                let raw = chars[i..quote_idx].contains(&'r');
                // Blank the prefix and opening quote.
                for _ in i..=quote_idx {
                    out.push(' ');
                }
                i = quote_idx + 1;
                blank_string_body(&chars, &mut i, &mut out, &mut line, raw, hashes);
                continue;
            }
        }
        // Plain string.
        if c == '"' {
            out.push(' ');
            i += 1;
            blank_string_body(&chars, &mut i, &mut out, &mut line, false, 0);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: blank to the closing quote.
                out.push(' ');
                i += 1;
                out.push(' ');
                i += 1; // the backslash
                if i < n {
                    out.push(' ');
                    i += 1; // the escaped char (first of possibly many)
                }
                while i < n && chars[i] != '\'' {
                    push_blank(&mut out, chars[i], &mut line);
                    i += 1;
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                // 'x' char literal.
                out.push_str("   ");
                i += 3;
                continue;
            }
            // Lifetime or loop label: plain code.
            out.push('\'');
            i += 1;
            continue;
        }
        if c == '\n' {
            line += 1;
        }
        out.push(c);
        i += 1;
    }

    Stripped {
        code: out,
        comments,
    }
}

/// Emits a space for `c` (or a newline, bumping `line`).
fn push_blank(out: &mut String, c: char, line: &mut usize) {
    if c == '\n' {
        out.push('\n');
        *line += 1;
    } else {
        out.push(' ');
    }
}

/// If `chars[start..]` begins a prefixed string literal (`r"`, `br#"`,
/// `b"`, …), returns `(index of the opening quote, hash count)`.
fn string_after_prefix(chars: &[char], start: usize) -> Option<(usize, usize)> {
    let n = chars.len();
    let mut j = start;
    let mut letters = 0usize;
    while j < n && matches!(chars[j], 'r' | 'b' | 'c') && letters < 2 {
        j += 1;
        letters += 1;
    }
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        j += 1;
        hashes += 1;
    }
    if j < n && chars[j] == '"' {
        let raw = chars[start..j].contains(&'r');
        if hashes > 0 && !raw {
            return None; // `b#"` is not a string start
        }
        Some((j, hashes))
    } else {
        None
    }
}

/// Blanks a string body starting just after the opening quote; leaves `i`
/// just past the closing delimiter.
fn blank_string_body(
    chars: &[char],
    i: &mut usize,
    out: &mut String,
    line: &mut usize,
    raw: bool,
    hashes: usize,
) {
    let n = chars.len();
    while *i < n {
        let c = chars[*i];
        if !raw && c == '\\' {
            out.push(' ');
            *i += 1;
            if *i < n {
                push_blank(out, chars[*i], line);
                *i += 1;
            }
            continue;
        }
        if c == '"' {
            if raw {
                let mut k = 0usize;
                while k < hashes && *i + 1 + k < n && chars[*i + 1 + k] == '#' {
                    k += 1;
                }
                if k == hashes {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    *i += 1 + hashes;
                    return;
                }
                out.push(' ');
                *i += 1;
                continue;
            }
            out.push(' ');
            *i += 1;
            return;
        }
        push_blank(out, c, line);
        *i += 1;
    }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] masking.
// ---------------------------------------------------------------------------

/// Blanks every `#[cfg(test)]`-gated item (module, function, or `use`) in
/// already-stripped code, so the rules only see non-test code. Newlines are
/// preserved.
pub fn mask_cfg_test(code: &str) -> String {
    const MARKER: &str = "#[cfg(test)]";
    let mut chars: Vec<char> = code.chars().collect();
    let marker: Vec<char> = MARKER.chars().collect();
    let mut from = 0usize;
    while let Some(start) = find_chars(&chars, &marker, from) {
        let n = chars.len();
        let mut j = start + marker.len();
        // Find the gated item's body start (`{`) or terminator (`;`).
        let mut open = None;
        while j < n {
            match chars[j] {
                '{' => {
                    open = Some(j);
                    break;
                }
                ';' => break,
                _ => j += 1,
            }
        }
        let end = match open {
            Some(o) => {
                let mut depth = 0usize;
                let mut k = o;
                loop {
                    if k >= n {
                        break n.saturating_sub(1);
                    }
                    match chars[k] {
                        '{' => depth += 1,
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break k;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            None => j.min(n.saturating_sub(1)),
        };
        for slot in chars.iter_mut().take(end + 1).skip(start) {
            if *slot != '\n' {
                *slot = ' ';
            }
        }
        from = end + 1;
    }
    chars.into_iter().collect()
}

/// Finds `needle` in `haystack` starting at `from`.
fn find_chars(haystack: &[char], needle: &[char], from: usize) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (from..=haystack.len() - needle.len()).find(|&s| &haystack[s..s + needle.len()] == needle)
}

// ---------------------------------------------------------------------------
// Token scanning.
// ---------------------------------------------------------------------------

/// How a token must be anchored to count as a finding.
#[derive(Debug, Clone, Copy)]
pub enum Anchor {
    /// `.word(` or `.word::<…>(` — a method call (e.g. `.clone()`,
    /// `.collect::<Vec<_>>()`).
    Method,
    /// `word!` — a macro invocation (e.g. `format!`).
    Macro,
    /// A `::`-qualified path occurrence (e.g. `Vec::new`), word-bounded at
    /// both ends.
    Path,
}

/// Scans one line of masked code for anchored tokens; returns
/// `(token, 0-based char column)` for each hit.
pub(crate) fn scan_line(
    line: &str,
    tokens: &[(&'static str, Anchor)],
) -> Vec<(&'static str, usize)> {
    let chars: Vec<char> = line.chars().collect();
    let mut hits = Vec::new();
    for &(word, anchor) in tokens {
        let needle: Vec<char> = word.chars().collect();
        let mut from = 0usize;
        while let Some(at) = find_chars(&chars, &needle, from) {
            from = at + 1;
            let before = at.checked_sub(1).map(|b| chars[b]);
            let after = chars.get(at + needle.len()).copied();
            if before.is_some_and(is_ident) || after.is_some_and(is_ident) {
                continue; // part of a longer identifier
            }
            let anchored = match anchor {
                // The ident-boundary check above already rejects longer
                // identifiers (`MyVec::new`); a leading `::` qualifier is
                // still the same path.
                Anchor::Path => true,
                Anchor::Macro => after == Some('!'),
                Anchor::Method => {
                    let prev = chars[..at].iter().rev().find(|c| !c.is_whitespace());
                    let rest: Vec<&char> = chars[at + needle.len()..]
                        .iter()
                        .filter(|c| !c.is_whitespace())
                        .take(2)
                        .collect();
                    let call = rest.first() == Some(&&'(')
                        || (rest.first() == Some(&&':') && rest.get(1) == Some(&&':'));
                    prev == Some(&'.') && call
                }
            };
            if anchored {
                hits.push((word, at));
            }
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// Justifications: allowance comments and `#[expect]` attributes.
// ---------------------------------------------------------------------------

/// If `comment` carries `lint: allow(<kind>)` *with* a non-empty reason
/// after it, returns the reason (a bare allowance never suppresses).
fn allow_reason(comment: &str, kind: &str) -> Option<String> {
    let marker = format!("lint: allow({kind})");
    let at = comment.find(&marker)?;
    let rest = comment[at + marker.len()..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':', ','])
        .trim();
    if rest.chars().filter(|c| !c.is_whitespace()).count() >= 3 {
        Some(rest.to_string())
    } else {
        None
    }
}

/// The 1-based lines of the contiguous comment/attribute block directly
/// above `line`, nearest first. Every line of a multi-line attribute counts.
pub(crate) fn annotation_lines_above(
    src_lines: &[&str],
    attrs: &[items::Attribute],
    line: usize,
) -> Vec<usize> {
    let mut above = Vec::new();
    let mut l = line;
    while l > 1 {
        l -= 1;
        let comment = src_lines
            .get(l - 1)
            .is_some_and(|s| s.trim_start().starts_with("//"));
        if !(comment || attrs.iter().any(|a| a.lines.0 <= l && l <= a.lines.1)) {
            break;
        }
        above.push(l);
    }
    above
}

/// If `attr` is `#[expect(<lints>, reason = "…")]`, returns the lints it
/// names and its reason (empty when it gives none, which clippy's
/// `allow_attributes_without_reason` rejects).
fn expectation(attr: &items::Attribute) -> Option<(Vec<String>, String)> {
    let masked: Vec<char> = attr.masked.chars().collect();
    let source: Vec<char> = attr.source.chars().collect();
    let head: String = masked
        .iter()
        .filter(|c| !c.is_whitespace())
        .take(7)
        .collect();
    if head != "expect(" {
        return None;
    }
    let mut from = masked.iter().position(|&c| c == '(')? + 1;
    let mut lints = Vec::new();
    let mut reason = String::new();
    // Strings are blanked in the masked body, so a comma or a parenthesis
    // inside the reason cannot end an argument early.
    for (i, &c) in masked.iter().enumerate().skip(from) {
        if c != ',' && c != ')' {
            continue;
        }
        let arg: String = masked[from..i].iter().collect();
        match arg.split_once('=') {
            Some((key, _)) if key.trim() == "reason" => {
                reason = string_literal(source.get(from..i).unwrap_or(&[]));
            }
            _ if !arg.trim().is_empty() => lints.push(arg.split_whitespace().collect()),
            _ => {}
        }
        from = i + 1;
        if c == ')' {
            break;
        }
    }
    Some((lints, reason))
}

/// The contents of the first string literal in `chars`, with escapes
/// resolved, a `\`-newline continuation dropped, and runs of whitespace
/// collapsed to one space.
fn string_literal(chars: &[char]) -> String {
    let mut out = String::new();
    let mut it = chars.iter().skip_while(|&&c| c != '"').skip(1).peekable();
    while let Some(&c) = it.next() {
        match c {
            '"' => break,
            '\\' => match it.next() {
                Some('n' | 't' | '\n') => out.push(' '),
                Some(&other) => out.push(other),
                None => break,
            },
            c => out.push(c),
        }
    }
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

// ---------------------------------------------------------------------------
// Manifest parsing (just enough TOML).
// ---------------------------------------------------------------------------

/// Extracts the body of `[header]` (lines until the next `[` section).
fn toml_section(text: &str, header: &str) -> Option<String> {
    let mut body = String::new();
    let mut inside = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            if inside {
                break;
            }
            inside = t == format!("[{header}]");
            continue;
        }
        if inside {
            body.push_str(line);
            body.push('\n');
        }
    }
    if body.is_empty() && !text.lines().any(|l| l.trim() == format!("[{header}]")) {
        None
    } else {
        Some(body)
    }
}

/// True when the section body assigns `key` to `value` (quoted or bare).
fn section_assigns(body: &str, key: &str, value: &str) -> bool {
    body.lines().any(|line| {
        let t = line.trim();
        let Some((k, v)) = t.split_once('=') else {
            return false;
        };
        k.trim() == key && v.trim().trim_matches('"') == value
    })
}

/// Parses `members = [...]` out of the `[workspace]` section and expands
/// trailing `/*` globs one directory level.
fn workspace_members(root: &Path, manifest: &str) -> Result<Vec<String>, LintError> {
    let section = toml_section(manifest, "workspace").ok_or_else(|| {
        LintError(format!(
            "{}: no [workspace] section",
            root.join("Cargo.toml").display()
        ))
    })?;
    let Some(open) = section.find("members") else {
        return Ok(Vec::new());
    };
    let after = &section[open..];
    let Some(lb) = after.find('[') else {
        return Ok(Vec::new());
    };
    let Some(rb) = after.find(']') else {
        return Err(LintError("unterminated members list".to_string()));
    };
    let list = &after[lb + 1..rb];
    let mut members = Vec::new();
    for raw in list.split(',') {
        let entry = raw.trim().trim_matches('"').trim();
        if entry.is_empty() {
            continue;
        }
        if let Some(prefix) = entry.strip_suffix("/*") {
            let dir = root.join(prefix);
            let mut expanded: Vec<String> = Vec::new();
            for child in std::fs::read_dir(&dir)? {
                let child = child?;
                if child.path().join("Cargo.toml").is_file() {
                    expanded.push(format!("{prefix}/{}", child.file_name().to_string_lossy()));
                }
            }
            expanded.sort();
            members.extend(expanded);
        } else {
            members.push(entry.to_string());
        }
    }
    Ok(members)
}

// ---------------------------------------------------------------------------
// The lint pass.
// ---------------------------------------------------------------------------

/// The clippy lints rule D4 requires at `deny` in `[workspace.lints.clippy]`:
/// everything D1, D2, D5 and D6's seeding ban rest on, plus the two lints
/// that make every suppression an `#[expect]` with a reason.
pub const REQUIRED_CLIPPY_DENIES: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "dbg_macro",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "cast_possible_truncation",
    "cast_sign_loss",
    "cast_possible_wrap",
    "disallowed_types",
    "disallowed_methods",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// Per-file scan state: resolves each finding into a violation or a tracked
/// suppression depending on the justification comments in scope.
struct FileScan<'a> {
    rel: &'a Path,
    src_lines: &'a [&'a str],
    attrs: &'a [items::Attribute],
    comments: &'a [(usize, String)],
    report: &'a mut LintReport,
}

impl FileScan<'_> {
    fn finding(
        &mut self,
        rule: Rule,
        kind: &'static str,
        line: usize,
        span: Option<(usize, usize)>,
        message: String,
    ) {
        match self.allow_reason_at(line, kind) {
            Some(reason) => self.report.suppressions.push(Suppression {
                rule: Some(rule),
                kind: kind.to_string(),
                file: self.rel.to_path_buf(),
                line,
                span,
                reason,
            }),
            None => self.report.violations.push(Violation {
                rule,
                file: self.rel.to_path_buf(),
                line,
                span,
                message,
            }),
        }
    }

    /// Finds the justification of `kind` covering `line` (1-based): on the
    /// same line or on the contiguous run of comment/attribute lines
    /// directly above it. Returns the reason text when justified.
    fn allow_reason_at(&self, line: usize, kind: &str) -> Option<String> {
        let on = |l: usize| {
            self.comments
                .iter()
                .filter(|(cl, _)| *cl == l)
                .find_map(|(_, text)| allow_reason(text, kind))
        };
        on(line).or_else(|| {
            annotation_lines_above(self.src_lines, self.attrs, line)
                .into_iter()
                .find_map(on)
        })
    }
}

/// Converts a 0-based char column and token into a 1-based `[start, end)`
/// span.
fn token_span(col: usize, token: &str) -> Option<(usize, usize)> {
    Some((col + 1, col + 1 + token.chars().count()))
}

/// Runs the per-source rules (D6, D7) over one file and records its
/// `#[expect]`s in the ledger, pushing findings into `report` and literal
/// `Stream::Aux` sites into `aux_sites` for the workspace-wide collision
/// check. `rng_home` marks the module whose `Stream::Aux` pattern matches
/// are not construction sites.
fn lint_source_report(
    text: &str,
    rel_path: &Path,
    rng_home: bool,
    report: &mut LintReport,
    aux_sites: &mut Vec<rngrule::AuxSite>,
) {
    let stripped = strip_source(text);
    let masked = mask_cfg_test(&stripped.code);
    let src_lines: Vec<&str> = text.lines().collect();
    let attrs = items::parse_attrs(&masked, text);

    // The ledger's `#[expect]` half: clippy checks each one, and the
    // ratchet counts them by the lint they name.
    for attr in &attrs {
        let Some((lints, reason)) = expectation(attr) else {
            continue;
        };
        for lint in lints {
            report.suppressions.push(Suppression {
                rule: None,
                kind: lint,
                file: rel_path.to_path_buf(),
                line: attr.lines.0,
                span: None,
                reason: reason.clone(),
            });
        }
    }

    let mut scan = FileScan {
        rel: rel_path,
        src_lines: &src_lines,
        attrs: &attrs,
        comments: &stripped.comments,
        report,
    };

    // D6: `Stream::Aux` construction sites. Non-literal tags fire here;
    // literal tags are deferred to the workspace-wide collision check.
    if !rng_home {
        for mut site in rngrule::scan_aux(&masked) {
            match site.value {
                None => scan.finding(
                    Rule::RngDiscipline,
                    "rng",
                    site.line,
                    Some(site.span),
                    "`Stream::Aux` tag must be an integer literal so the \
                     workspace-wide collision check can audit it; name the \
                     constant inline or justify with `// lint: allow(rng) — <reason>`"
                        .to_string(),
                ),
                Some(_) => {
                    site.file = rel_path.to_path_buf();
                    site.allow_reason = scan.allow_reason_at(site.line, "rng");
                    aux_sites.push(site);
                }
            }
        }
    }

    // D7: allocation scan inside `// lint: hot` functions, with
    // debug_assert oracle bodies span-masked out first.
    let fns = items::parse_fns(&masked);
    let hot: Vec<&items::FnItem> = fns
        .iter()
        .filter(|f| hotpath::is_hot(f, &src_lines, &attrs, &stripped.comments))
        .collect();
    if !hot.is_empty() {
        let alloc_masked = hotpath::mask_debug_asserts(&masked);
        let alloc_lines: Vec<&str> = alloc_masked.lines().collect();
        for f in hot {
            for line_no in f.body_lines.0..=f.body_lines.1 {
                // Attribute each line to its innermost function: a nested
                // (non-hot) helper inside a hot fn is scanned on its own
                // terms, not its host's.
                let owner = items::innermost_containing(&fns, line_no);
                if owner.map(|g| (g.header_line, g.body_lines))
                    != Some((f.header_line, f.body_lines))
                {
                    continue;
                }
                let Some(line) = alloc_lines.get(line_no - 1) else {
                    continue;
                };
                for (token, col) in scan_line(line, hotpath::ALLOC_TOKENS) {
                    scan.finding(
                        Rule::HotPathAlloc,
                        "alloc",
                        line_no,
                        token_span(col, token),
                        format!(
                            "allocating construct `{token}` in `// lint: hot` fn \
                             `{}`; hoist the buffer into reusable scratch state \
                             or justify with `// lint: allow(alloc) — <reason>`",
                            f.name
                        ),
                    );
                }
            }
        }
    }
}

/// Workspace-wide D6 collision check over the collected literal
/// `Stream::Aux` sites: duplicate tags and reserved-namespace wraps.
fn check_aux_collisions(aux_sites: &mut [rngrule::AuxSite], report: &mut LintReport) {
    aux_sites.sort_by(|a, b| (&a.file, a.line, a.span).cmp(&(&b.file, b.line, b.span)));
    let mut first_seen: BTreeMap<u64, (PathBuf, usize)> = BTreeMap::new();
    for site in aux_sites.iter() {
        let Some(value) = site.value else { continue };
        let mut problems: Vec<String> = Vec::new();
        if rngrule::wraps_reserved(value) {
            problems.push(format!(
                "`Stream::Aux({value})` wraps past 2^64 into the reserved \
                 player/singleton tag namespaces (tags at or above 2^64 - 2^41 \
                 alias other streams); pick a small tag"
            ));
        }
        match first_seen.get(&value) {
            Some((file, line)) => problems.push(format!(
                "`Stream::Aux({value})` collides with the same tag at {}:{line}; \
                 every auxiliary stream needs a unique tag",
                file.display()
            )),
            None => {
                first_seen.insert(value, (site.file.clone(), site.line));
            }
        }
        for message in problems {
            match &site.allow_reason {
                Some(reason) => report.suppressions.push(Suppression {
                    rule: Some(Rule::RngDiscipline),
                    kind: "rng".to_string(),
                    file: site.file.clone(),
                    line: site.line,
                    span: Some(site.span),
                    reason: reason.clone(),
                }),
                None => report.violations.push(Violation {
                    rule: Rule::RngDiscipline,
                    file: site.file.clone(),
                    line: site.line,
                    span: Some(site.span),
                    message,
                }),
            }
        }
    }
}

/// Sorts a report into its canonical (deterministic) order.
fn sort_report(report: &mut LintReport) {
    report.violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule)
            .cmp(&(&b.file, b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    report.suppressions.sort_by(|a, b| {
        (&a.file, a.line, &a.kind)
            .cmp(&(&b.file, b.line, &b.kind))
            .then_with(|| a.reason.cmp(&b.reason))
    });
}

/// A manifest-level finding (line 0, no span).
fn manifest_violation(rule: Rule, file: PathBuf, message: String) -> Violation {
    Violation {
        rule,
        file,
        line: 0,
        span: None,
        message,
    }
}

/// Runs every rule over the workspace described by `config`, returning
/// both violations and the suppression ledger.
pub fn lint_workspace_report(config: &LintConfig) -> Result<LintReport, LintError> {
    let root_manifest_path = config.root.join("Cargo.toml");
    let root_manifest = std::fs::read_to_string(&root_manifest_path)
        .map_err(|e| LintError(format!("{}: {e}", root_manifest_path.display())))?;
    let mut report = LintReport::default();
    let mut aux_sites: Vec<rngrule::AuxSite> = Vec::new();

    // D4 (root): every lint the type-checked rules rest on is at deny.
    match toml_section(&root_manifest, "workspace.lints.clippy") {
        None => report.violations.push(manifest_violation(
            Rule::LintPolicy,
            PathBuf::from("Cargo.toml"),
            "missing [workspace.lints.clippy] table".to_string(),
        )),
        Some(body) => {
            for lint in REQUIRED_CLIPPY_DENIES {
                if !section_assigns(&body, lint, "deny") {
                    report.violations.push(manifest_violation(
                        Rule::LintPolicy,
                        PathBuf::from("Cargo.toml"),
                        format!("[workspace.lints.clippy] must set {lint} = \"deny\""),
                    ));
                }
            }
        }
    }
    let forbids_unsafe =
        |body: Option<String>| body.is_some_and(|b| section_assigns(&b, "unsafe_code", "forbid"));
    let workspace_forbids = forbids_unsafe(toml_section(&root_manifest, "workspace.lints.rust"));

    let mut members = workspace_members(&config.root, &root_manifest)?;
    if toml_section(&root_manifest, "package").is_some() {
        members.push(".".to_string());
    }

    for member in &members {
        let member_dir = config.root.join(member);
        let manifest_path = member_dir.join("Cargo.toml");
        let manifest = std::fs::read_to_string(&manifest_path)
            .map_err(|e| LintError(format!("{}: {e}", manifest_path.display())))?;
        let is_protected = config.protected.iter().any(|p| p == member);
        let rel_manifest = if member == "." {
            PathBuf::from("Cargo.toml")
        } else {
            PathBuf::from(member).join("Cargo.toml")
        };
        let inherits = toml_section(&manifest, "lints")
            .is_some_and(|body| section_assigns(&body, "workspace", "true"))
            || manifest
                .lines()
                .any(|l| l.trim().replace(' ', "") == "lints.workspace=true");

        // D4 (member): protected crates must inherit the workspace lints.
        if is_protected && !inherits {
            report.violations.push(manifest_violation(
                Rule::LintPolicy,
                rel_manifest.clone(),
                "protected crate must set lints.workspace = true".to_string(),
            ));
        }

        // D3: the member forbids unsafe code, inherited or in its own table.
        let exempt = config
            .unsafe_exempt
            .iter()
            .any(|p| member == p || member.starts_with(&format!("{p}/")));
        let forbids = (inherits && workspace_forbids)
            || forbids_unsafe(toml_section(&manifest, "lints.rust"));
        if !exempt && !forbids {
            report.violations.push(manifest_violation(
                Rule::UnsafeHygiene,
                rel_manifest,
                "crate must forbid unsafe code: inherit [workspace.lints.rust] \
                 unsafe_code = \"forbid\" or set it in its own [lints.rust]"
                    .to_string(),
            ));
        }

        // D6/D7 and the ledger: per-source scans of protected non-test code.
        if is_protected {
            let mut files = Vec::new();
            collect_rs_files(&member_dir.join("src"), &mut files)?;
            for path in files {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| LintError(format!("{}: {e}", path.display())))?;
                let rel = path
                    .strip_prefix(&config.root)
                    .unwrap_or(&path)
                    .to_path_buf();
                let rng_home = config
                    .rng_exempt
                    .iter()
                    .any(|entry| Path::new(entry) == rel.as_path());
                lint_source_report(&text, &rel, rng_home, &mut report, &mut aux_sites);
            }
        }
    }

    check_aux_collisions(&mut aux_sites, &mut report);
    sort_report(&mut report);
    Ok(report)
}

/// Runs all rules over the workspace described by `config`. Returns the
/// violations sorted by `(file, line, rule)`; an empty vector means the
/// workspace passes the gate. Thin wrapper over [`lint_workspace_report`]
/// for callers that only care about hard failures.
pub fn lint_workspace(config: &LintConfig) -> Result<Vec<Violation>, LintError> {
    Ok(lint_workspace_report(config)?.violations)
}

/// Recursively gathers `.rs` files under `dir` in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the per-source rules (D6, D7) over one file, appending unjustified
/// findings to `violations`. The `Stream::Aux` collision check runs
/// file-locally here; [`lint_workspace_report`] widens it to the whole
/// workspace.
pub fn lint_source(text: &str, rel_path: &Path, violations: &mut Vec<Violation>) {
    let mut report = LintReport::default();
    let mut aux_sites = Vec::new();
    lint_source_report(text, rel_path, false, &mut report, &mut aux_sites);
    check_aux_collisions(&mut aux_sites, &mut report);
    sort_report(&mut report);
    violations.extend(report.violations);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(hits: Vec<(&'static str, usize)>) -> Vec<&'static str> {
        hits.into_iter().map(|(t, _)| t).collect()
    }

    /// The crates that carry the fault layer, the service's wall clock and
    /// trial supervision must stay in the protected set, and the source
    /// walker must actually visit those modules — otherwise a rename could
    /// silently drop them out of the D6/D7 scans and the ledger.
    #[test]
    fn fault_service_and_supervision_modules_are_under_lint_protection() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let config = LintConfig::for_repo(root.clone());
        for (member, module) in [
            ("crates/sim", "faults.rs"),
            ("crates/service", "stress.rs"),
            ("crates/harness", "supervisor.rs"),
        ] {
            assert!(
                config.protected.iter().any(|p| p == member),
                "{member} must be a protected crate"
            );
            let mut files = Vec::new();
            collect_rs_files(&root.join(member).join("src"), &mut files).expect("walk sources");
            assert!(
                files.iter().any(|f| f.ends_with(module)),
                "lint walker must visit {member}/src/{module}; saw {files:?}"
            );
        }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"call .unwrap() now\"; // and .expect( too\nlet b = 'x';";
        let s = strip_source(src);
        assert!(!s.code.contains("unwrap"));
        assert!(!s.code.contains("expect"));
        assert!(!s.code.contains('x'));
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].1.contains(".expect("));
        // Line structure is preserved.
        assert_eq!(s.code.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet r = r#\"panic!(\"no\")\"#;";
        let s = strip_source(src);
        assert!(s.code.contains("fn f<'a>"));
        assert!(!s.code.contains("panic"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner panic!() */ still comment */ let x = 1;";
        let s = strip_source(src);
        assert!(!s.code.contains("panic"));
        assert!(s.code.contains("let x = 1;"));
    }

    #[test]
    fn cfg_test_spans_are_masked() {
        let src =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}";
        let masked = mask_cfg_test(&strip_source(src).code);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("fn ok"));
        assert!(masked.contains("fn more"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn method_anchor_requires_dot_and_paren() {
        use crate::hotpath::ALLOC_TOKENS;
        assert_eq!(names(scan_line("x.clone()", ALLOC_TOKENS)), vec!["clone"]);
        assert!(scan_line("x.clone_from(&y)", ALLOC_TOKENS).is_empty());
        assert!(scan_line("fn clone(x: u32) {}", ALLOC_TOKENS).is_empty());
        assert!(scan_line("#[derive(Clone)]", ALLOC_TOKENS).is_empty());
        assert_eq!(
            names(scan_line("format!(\"{x}\")", ALLOC_TOKENS)),
            vec!["format"]
        );
        assert!(scan_line("debug_format!(x)", ALLOC_TOKENS).is_empty());
    }

    #[test]
    fn method_anchor_accepts_turbofish() {
        use crate::hotpath::ALLOC_TOKENS;
        assert_eq!(
            names(scan_line("let v = it.collect::<Vec<_>>();", ALLOC_TOKENS)),
            vec!["collect"]
        );
        assert_eq!(
            names(scan_line("let v = it.collect();", ALLOC_TOKENS)),
            vec!["collect"]
        );
        // A path mention without a receiver dot is not a method call.
        assert!(scan_line("map(Clone::clone)", ALLOC_TOKENS).is_empty());
    }

    #[test]
    fn path_anchor_matches_qualified_constructors() {
        use crate::hotpath::ALLOC_TOKENS;
        assert_eq!(
            names(scan_line("let v = Vec::new();", ALLOC_TOKENS)),
            vec!["Vec::new"]
        );
        assert_eq!(
            names(scan_line("let v = std::vec::Vec::new();", ALLOC_TOKENS)),
            vec!["Vec::new"]
        );
        // `MyVec::new` must not match `Vec::new`.
        assert!(scan_line("let v = MyVec::new();", ALLOC_TOKENS).is_empty());
        // The bare type name in a signature is not a construction.
        assert!(scan_line("fn f(xs: &Vec<u32>) {}", ALLOC_TOKENS).is_empty());
    }

    #[test]
    fn scan_line_reports_columns() {
        let hits = scan_line("    x.clone()", hotpath::ALLOC_TOKENS);
        assert_eq!(hits, vec![("clone", 6)]);
    }

    #[test]
    fn justification_requires_a_reason() {
        assert_eq!(
            allow_reason("// lint: allow(alloc) — cold error path", "alloc").as_deref(),
            Some("cold error path")
        );
        assert!(allow_reason("// lint: allow(rng): replay on purpose", "rng").is_some());
        assert_eq!(allow_reason("// lint: allow(alloc)", "alloc"), None);
        assert_eq!(allow_reason("// lint: allow(alloc) — ", "alloc"), None);
        assert_eq!(allow_reason("// lint: allow(rng) x", "rng"), None);
        assert_eq!(allow_reason("// lint: allow(rng) — replay", "alloc"), None);
    }

    #[test]
    fn allowance_looks_upward_through_annotations() {
        let hot = "// lint: hot\nfn f(x: &[u32]) -> Vec<u32> {\n";
        let src = format!(
            "{hot}    // lint: allow(alloc) — provably cold here\n    #[expect(\n        clippy::x,\n        reason = \"multi-line\"\n    )]\n    let v = x.to_vec();\n    v\n}}\n"
        );
        let mut v = Vec::new();
        lint_source(&src, Path::new("t.rs"), &mut v);
        assert!(v.is_empty(), "justified site must not fire: {v:?}");

        let src2 = format!(
            "{hot}    // lint: allow(alloc) — reason\n    let a = 1;\n    x.to_vec()\n}}\n"
        );
        let mut v2 = Vec::new();
        lint_source(&src2, Path::new("t.rs"), &mut v2);
        assert_eq!(v2.len(), 1, "non-adjacent comment must not suppress");
    }

    #[test]
    fn expectations_join_the_ledger_with_their_reasons() {
        let src = "\
#[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = \"a, \\\"quoted\\\" \\
    reason\")]
fn f() {}
#![expect(clippy::too_many_arguments)]
#[allow(dead_code)]
#[cfg(test)]
#[expect(clippy::unwrap_used, reason = \"test code is masked\")]
mod tests {}
";
        let mut report = LintReport::default();
        lint_source_report(src, Path::new("t.rs"), false, &mut report, &mut Vec::new());
        let ledger: Vec<String> = report.suppressions.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            ledger,
            vec![
                "t.rs:1: expect(clippy::cast_possible_truncation) — a, \"quoted\" reason",
                "t.rs:1: expect(clippy::cast_sign_loss) — a, \"quoted\" reason",
                "t.rs:4: expect(clippy::too_many_arguments) — ",
            ]
        );
    }

    #[test]
    fn toml_helpers() {
        let manifest = "[workspace]\nmembers = [\n  \"a\",\n  \"b\",\n]\n\n[workspace.lints.clippy]\nunwrap_used = \"deny\"\n";
        let body = toml_section(manifest, "workspace.lints.clippy").unwrap();
        assert!(section_assigns(&body, "unwrap_used", "deny"));
        assert!(!section_assigns(&body, "expect_used", "deny"));
        assert!(toml_section(manifest, "package").is_none());
    }

    #[test]
    fn lint_source_runs_the_hot_path_rule() {
        let src = "\
// lint: hot
pub fn hot_loop(xs: &[u64]) -> usize {
    let mut buf = Vec::new();
    buf.push(xs.len());
    buf[0]
}
";
        let mut v = Vec::new();
        lint_source(src, Path::new("t.rs"), &mut v);
        let codes: Vec<&str> = v.iter().map(|x| x.rule.code()).collect();
        assert_eq!(codes, vec!["D7"], "Vec::new in hot fn: {v:?}");
        // Spans are 1-based char columns over the token.
        assert_eq!(v[0].span, Some((19, 27)));
    }
}
