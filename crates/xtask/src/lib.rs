//! distill-lint: a from-scratch, offline, span-aware invariant checker for
//! this workspace.
//!
//! The checker enforces seven repo-wide invariants (see `DESIGN.md` §9 and
//! §14):
//!
//! * **D1 — panic-freedom.** Non-test code in the protected crates must not
//!   call `unwrap()`/`expect()` or invoke `panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!`/`dbg!`, unless the site carries a justification
//!   comment: `// lint: allow(panic) — <reason>`. `catch_unwind` is also
//!   banned there: recovering from panics is supervision, and supervision
//!   lives in the deliberately unprotected `crates/harness` crate so the
//!   protected core stays panic-*free*, not panic-*tolerant*.
//! * **D2 — determinism.** Non-test code in the protected crates must not
//!   use `HashMap`/`HashSet` (iteration order is randomized per process),
//!   wall-clock time (`Instant`/`SystemTime`), or ambient randomness
//!   (`thread_rng`/`from_entropy`), unless justified with
//!   `// lint: allow(nondet) — <reason>`.
//! * **D3 — unsafe hygiene.** Every workspace crate (except the vendored
//!   compat stubs) carries `#![forbid(unsafe_code)]` in its crate roots.
//! * **D4 — lint policy.** The root manifest pins the clippy panic-lint
//!   denies and the cast-lint warns under `[workspace.lints]`, and every
//!   protected crate opts in with `lints.workspace = true`.
//! * **D5 — lossy-cast audit** ([`casts`]). Narrowing or sign-changing `as`
//!   casts in protected crates are violations unless justified with
//!   `// lint: allow(cast) — <reason>`; widening casts stay allowed.
//! * **D6 — RNG stream discipline** ([`rngrule`]). RNG construction routes
//!   through `stream_rng(seed, Stream::…)`; raw seed arithmetic outside the
//!   RNG home module is a violation, and literal `Stream::Aux(k)` tags are
//!   collected workspace-wide and checked for duplicates and reserved-
//!   namespace wraps.
//! * **D7 — hot-path allocation hygiene** ([`hotpath`]). Functions
//!   annotated `// lint: hot` must not contain allocating constructs;
//!   `debug_assert!` oracle bodies are span-masked out first.
//!
//! The pass is *token-level with spans*, not a full parser: sources are
//! lexed just enough to blank out strings, char literals, and comments
//! (comments are kept on the side for justification lookup), `#[cfg(test)]`
//! spans are masked by brace matching, a lightweight item parser ([`items`])
//! recovers brace-matched `fn` spans, and the rules then run word-boundary
//! token scans over the result. That keeps the checker dependency-free,
//! offline, and fast, at the cost of being advisory about exotic syntax —
//! which `cargo clippy` (rule D4) backstops at the semantic level.
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

pub mod casts;
pub mod hotpath;
pub mod items;
pub mod report;
pub mod rngrule;

/// The seven invariants distill-lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: no panicking constructs in protected non-test code.
    PanicFreedom,
    /// D2: no nondeterministic containers, clocks, or ambient RNG.
    Determinism,
    /// D3: `#![forbid(unsafe_code)]` in every non-exempt crate root.
    UnsafeHygiene,
    /// D4: workspace lint policy present and inherited.
    LintPolicy,
    /// D5: no narrowing or sign-changing `as` casts.
    CastAudit,
    /// D6: RNG construction routes through `stream_rng`; `Aux` tags are
    /// literal, unique, and inside the `Aux` namespace.
    RngDiscipline,
    /// D7: no allocating constructs inside `// lint: hot` functions.
    HotPathAlloc,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::PanicFreedom,
    Rule::Determinism,
    Rule::UnsafeHygiene,
    Rule::LintPolicy,
    Rule::CastAudit,
    Rule::RngDiscipline,
    Rule::HotPathAlloc,
];

/// Every suppression kind a `// lint: allow(<kind>) — <reason>` comment may
/// name, in report order.
pub const SUPPRESSION_KINDS: &[&str] = &["alloc", "cast", "nondet", "panic", "rng"];

impl Rule {
    /// Short rule code used in reports.
    pub fn code(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "D1",
            Rule::Determinism => "D2",
            Rule::UnsafeHygiene => "D3",
            Rule::LintPolicy => "D4",
            Rule::CastAudit => "D5",
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

/// A finding that *would* have been a violation but was justified by a
/// `// lint: allow(<kind>) — <reason>` comment. Tracked so the suppression
/// ledger (`xtask lint --list-suppressions`) and the baseline ratchet see
/// the full burndown surface, not just the failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule that would have fired.
    pub rule: Rule,
    /// The allowance kind (`panic`, `nondet`, `cast`, `rng`, `alloc`).
    pub kind: String,
    /// File the suppressed site is in, relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number of the suppressed site.
    pub line: usize,
    /// 1-based char columns `[start, end)` of the suppressed token.
    pub span: Option<(usize, usize)>,
    /// The justification text following the allowance marker.
    pub reason: String,
}

impl fmt::Display for Suppression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: allow({}) — {}",
            self.rule.code(),
            self.file.display(),
            self.line,
            self.kind,
            self.reason
        )
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
    /// Member paths (relative, as written in `members = [...]`) whose
    /// sources are D1/D2/D5/D6/D7-protected and must opt into the workspace
    /// lints.
    pub protected: Vec<String>,
    /// Root-relative source paths in *unprotected* crates that receive the
    /// same per-source D1/D2/D5/D6/D7 scan. This is how individual modules
    /// earn protection without dragging a whole crate onto the list — the
    /// harness persistence modules (`store`, `atomic`) need neither the
    /// `catch_unwind` nor the wall-clock escape hatch their crate exists
    /// for. Paths inside a protected member would be scanned twice; keep
    /// them off this list.
    pub protected_files: Vec<String>,
    /// Member path prefixes exempt from the D3 `forbid(unsafe_code)` check
    /// (vendored compat stubs that mirror upstream APIs).
    pub unsafe_exempt: Vec<String>,
    /// Root-relative source paths that *are* the RNG home: raw seed
    /// arithmetic (D6) is legal only here, and `Stream::Aux` pattern
    /// matches in these files are not construction sites.
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
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            protected_files: [
                "crates/harness/src/checkpoint.rs",
                "crates/harness/src/codec.rs",
                "crates/harness/src/frame.rs",
                "crates/harness/src/lease.rs",
                "crates/harness/src/merge.rs",
                "crates/harness/src/store.rs",
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
    /// `.word(` or `.word::<…>(` — a method call (e.g. `.unwrap()`,
    /// `.collect::<Vec<_>>()`).
    Method,
    /// `word!` — a macro invocation (e.g. `panic!`).
    Macro,
    /// A bare word-bounded occurrence (e.g. `HashMap`).
    Word,
    /// A `::`-qualified path occurrence (e.g. `Vec::new`), word-bounded at
    /// both ends.
    Path,
}

/// The D1 (panic-freedom) token set.
const PANIC_TOKENS: &[(&str, Anchor)] = &[
    ("unwrap", Anchor::Method),
    ("expect", Anchor::Method),
    ("unwrap_err", Anchor::Method),
    ("expect_err", Anchor::Method),
    ("panic", Anchor::Macro),
    ("unreachable", Anchor::Macro),
    ("todo", Anchor::Macro),
    ("unimplemented", Anchor::Macro),
    ("dbg", Anchor::Macro),
    ("catch_unwind", Anchor::Word),
];

/// The D2 (determinism) token set.
const NONDET_TOKENS: &[(&str, Anchor)] = &[
    ("HashMap", Anchor::Word),
    ("HashSet", Anchor::Word),
    ("thread_rng", Anchor::Word),
    ("from_entropy", Anchor::Word),
    ("Instant", Anchor::Word),
    ("SystemTime", Anchor::Word),
];

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
                Anchor::Word | Anchor::Path => true,
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
// Justification comments.
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

/// Returns true when `comment` carries `lint: allow(<kind>)` *with* a
/// non-empty reason after it.
#[cfg(test)]
fn comment_allows(comment: &str, kind: &str) -> bool {
    allow_reason(comment, kind).is_some()
}

/// Finds the justification of `kind` covering `line` (1-based): on the same
/// line or on the contiguous run of comment/attribute lines directly above
/// it. Returns the reason text when justified.
fn allow_reason_at(
    src_lines: &[&str],
    comments: &[(usize, String)],
    line: usize,
    kind: &str,
) -> Option<String> {
    let on = |l: usize| {
        comments
            .iter()
            .filter(|(cl, _)| *cl == l)
            .find_map(|(_, text)| allow_reason(text, kind))
    };
    if let Some(reason) = on(line) {
        return Some(reason);
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let raw = src_lines.get(l - 1).map_or("", |s| s.trim_start());
        let is_annotation = raw.starts_with("//") || raw.starts_with("#[") || raw.starts_with("#!");
        if !is_annotation {
            return None;
        }
        if let Some(reason) = on(l) {
            return Some(reason);
        }
    }
    None
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

/// The clippy lints rule D4 requires at `deny` in `[workspace.lints.clippy]`.
const REQUIRED_CLIPPY_DENIES: &[&str] = &["unwrap_used", "expect_used", "dbg_macro"];

/// The clippy lints rule D4 requires at `warn` in `[workspace.lints.clippy]`
/// (the semantic backstop for the token-level D5 cast audit).
const REQUIRED_CLIPPY_WARNS: &[&str] = &["cast_possible_truncation", "cast_sign_loss"];

/// Per-file scan state: resolves each finding into a violation or a tracked
/// suppression depending on the justification comments in scope.
struct FileScan<'a> {
    rel: &'a Path,
    src_lines: &'a [&'a str],
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
        match allow_reason_at(self.src_lines, self.comments, line, kind) {
            Some(reason) => self.report.suppressions.push(Suppression {
                rule,
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
}

/// Converts a 0-based char column and token into a 1-based `[start, end)`
/// span.
fn token_span(col: usize, token: &str) -> Option<(usize, usize)> {
    Some((col + 1, col + 1 + token.chars().count()))
}

/// Runs every per-source rule (D1, D2, D5, D6, D7) over one file, pushing
/// findings into `report` and literal `Stream::Aux` sites into `aux_sites`
/// for the workspace-wide collision check. `rng_home` marks the module where
/// raw seed arithmetic is legal (D6's exemption).
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
    let mut scan = FileScan {
        rel: rel_path,
        src_lines: &src_lines,
        comments: &stripped.comments,
        report,
    };

    // D1 + D2: line-oriented token scans.
    for (idx, line) in masked.lines().enumerate() {
        let line_no = idx + 1;
        for (token, col) in scan_line(line, PANIC_TOKENS) {
            let message = if token == "catch_unwind" {
                "`catch_unwind` swallows panics instead of preventing them; \
                 move supervision into the unprotected `crates/harness` crate \
                 or justify with `// lint: allow(panic) — <reason>`"
                    .to_string()
            } else {
                format!(
                    "`{token}` can panic; return an error or justify with \
                     `// lint: allow(panic) — <reason>`"
                )
            };
            scan.finding(
                Rule::PanicFreedom,
                "panic",
                line_no,
                token_span(col, token),
                message,
            );
        }
        for (token, col) in scan_line(line, NONDET_TOKENS) {
            scan.finding(
                Rule::Determinism,
                "nondet",
                line_no,
                token_span(col, token),
                format!(
                    "`{token}` is nondeterministic; use an ordered/seeded \
                     alternative or justify with `// lint: allow(nondet) — <reason>`"
                ),
            );
        }
        // D6a: raw seed arithmetic outside the RNG home module.
        if !rng_home {
            for (token, col) in scan_line(line, rngrule::RAW_SEED_TOKENS) {
                scan.finding(
                    Rule::RngDiscipline,
                    "rng",
                    line_no,
                    token_span(col, token),
                    format!(
                        "raw seed construction `{token}` bypasses the stream \
                         derivation; route through `stream_rng(seed, Stream::…)` \
                         or justify with `// lint: allow(rng) — <reason>`"
                    ),
                );
            }
        }
    }

    // D5: lossy-cast audit.
    for site in casts::scan_casts(&masked) {
        if let Some(message) = casts::classify(&site) {
            scan.finding(Rule::CastAudit, "cast", site.line, Some(site.span), message);
        }
    }

    // D6b: `Stream::Aux` construction sites. Non-literal tags fire here;
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
                    site.allow_reason =
                        allow_reason_at(&src_lines, &stripped.comments, site.line, "rng");
                    aux_sites.push(site);
                }
            }
        }
    }

    // D7: allocation scan inside `// lint: hot` functions, with
    // debug_assert oracle bodies span-masked out first.
    let fns = items::parse_fns(&masked, &src_lines);
    let hot: Vec<&items::FnItem> = fns
        .iter()
        .filter(|f| hotpath::is_hot(f, &src_lines, &stripped.comments))
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
                    rule: Rule::RngDiscipline,
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

/// Runs all seven rules over the workspace described by `config`, returning
/// both violations and the justified-suppression ledger.
pub fn lint_workspace_report(config: &LintConfig) -> Result<LintReport, LintError> {
    let root_manifest_path = config.root.join("Cargo.toml");
    let root_manifest = std::fs::read_to_string(&root_manifest_path)
        .map_err(|e| LintError(format!("{}: {e}", root_manifest_path.display())))?;
    let mut report = LintReport::default();
    let mut aux_sites: Vec<rngrule::AuxSite> = Vec::new();

    // D4 (root): the clippy panic-lint denies and cast-lint warns must be
    // pinned.
    match toml_section(&root_manifest, "workspace.lints.clippy") {
        None => report.violations.push(Violation {
            rule: Rule::LintPolicy,
            file: PathBuf::from("Cargo.toml"),
            line: 0,
            span: None,
            message: "missing [workspace.lints.clippy] table".to_string(),
        }),
        Some(body) => {
            for lint in REQUIRED_CLIPPY_DENIES {
                if !section_assigns(&body, lint, "deny") {
                    report.violations.push(Violation {
                        rule: Rule::LintPolicy,
                        file: PathBuf::from("Cargo.toml"),
                        line: 0,
                        span: None,
                        message: format!("[workspace.lints.clippy] must set {lint} = \"deny\""),
                    });
                }
            }
            for lint in REQUIRED_CLIPPY_WARNS {
                if !section_assigns(&body, lint, "warn") {
                    report.violations.push(Violation {
                        rule: Rule::LintPolicy,
                        file: PathBuf::from("Cargo.toml"),
                        line: 0,
                        span: None,
                        message: format!(
                            "[workspace.lints.clippy] must set {lint} = \"warn\" \
                             (semantic backstop for D5)"
                        ),
                    });
                }
            }
        }
    }

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

        // D4 (member): protected crates must inherit the workspace lints.
        if is_protected {
            let inherits = toml_section(&manifest, "lints")
                .is_some_and(|body| section_assigns(&body, "workspace", "true"))
                || manifest
                    .lines()
                    .any(|l| l.trim().replace(' ', "") == "lints.workspace=true");
            if !inherits {
                report.violations.push(Violation {
                    rule: Rule::LintPolicy,
                    file: rel_manifest.clone(),
                    line: 0,
                    span: None,
                    message: "protected crate must set lints.workspace = true".to_string(),
                });
            }
        }

        // D3: crate roots must forbid unsafe code.
        let exempt = config
            .unsafe_exempt
            .iter()
            .any(|p| member == p || member.starts_with(&format!("{p}/")));
        if !exempt {
            for crate_root in ["src/lib.rs", "src/main.rs"] {
                let path = member_dir.join(crate_root);
                if !path.is_file() {
                    continue;
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| LintError(format!("{}: {e}", path.display())))?;
                let stripped = strip_source(&text);
                if !stripped.code.contains("#![forbid(unsafe_code)]") {
                    report.violations.push(Violation {
                        rule: Rule::UnsafeHygiene,
                        file: rel_source_path(member, crate_root),
                        line: 1,
                        span: None,
                        message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
                    });
                }
            }
        }

        // D1/D2/D5/D6/D7: per-source scans of protected non-test code.
        if is_protected {
            let src_dir = member_dir.join("src");
            let mut files = Vec::new();
            collect_rs_files(&src_dir, &mut files)?;
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

    // D1/D2/D5/D6/D7: individually protected sources in otherwise
    // unprotected crates (the harness persistence modules — total decode and
    // atomic writes must be panic-free and deterministic even though their
    // crate keeps the supervision escape hatches).
    for entry in &config.protected_files {
        let path = config.root.join(entry);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| LintError(format!("{}: {e}", path.display())))?;
        let rel = PathBuf::from(entry);
        let rng_home = config
            .rng_exempt
            .iter()
            .any(|exempt| Path::new(exempt) == rel.as_path());
        lint_source_report(&text, &rel, rng_home, &mut report, &mut aux_sites);
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

/// Joins a member path and an in-crate source path for reporting.
fn rel_source_path(member: &str, source: &str) -> PathBuf {
    if member == "." {
        PathBuf::from(source)
    } else {
        PathBuf::from(member).join(source)
    }
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

/// Runs the per-source rules (D1, D2, D5, D6, D7) over one file, appending
/// unjustified findings to `violations`. The `Stream::Aux` collision check
/// runs file-locally here; [`lint_workspace_report`] widens it to the whole
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

    /// The fault-injection module rides inside `crates/sim`, which must stay
    /// on the protected list, and the source walker must actually visit it —
    /// otherwise a rename could silently drop the fault layer out of the
    /// D1/D2 gates.
    #[test]
    fn fault_module_is_under_lint_protection() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let config = LintConfig::for_repo(root.clone());
        assert!(
            config.protected.iter().any(|p| p == "crates/sim"),
            "crates/sim must be a protected crate"
        );
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates/sim/src"), &mut files).expect("walk sim sources");
        assert!(
            files.iter().any(|f| f.ends_with("faults.rs")),
            "lint walker must visit crates/sim/src/faults.rs; saw {files:?}"
        );
    }

    #[test]
    fn service_crate_is_under_lint_protection() {
        // The concurrent service crate carries the same determinism/panic
        // discipline as the substrate it fronts — unlike `crates/harness`,
        // it is production code on the protected list, and its wall-clock
        // sites must go through justified suppressions.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let config = LintConfig::for_repo(root.clone());
        assert!(
            config.protected.iter().any(|p| p == "crates/service"),
            "crates/service must be a protected crate"
        );
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates/service/src"), &mut files)
            .expect("walk service sources");
        assert!(
            files.iter().any(|f| f.ends_with("stress.rs")),
            "lint walker must visit crates/service/src/stress.rs; saw {files:?}"
        );
    }

    /// The harness crate must stay *off* the protected-crate list (its
    /// supervisor legitimately uses `catch_unwind` and wall clocks), while
    /// its persistence modules must stay individually file-protected —
    /// otherwise a rename or a config edit could silently drop the store
    /// format out of the D1/D2 gates.
    #[test]
    fn harness_persistence_modules_are_file_protected() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let config = LintConfig::for_repo(root.clone());
        assert!(
            !config.protected.iter().any(|p| p == "crates/harness"),
            "crates/harness must stay off the protected-crate list"
        );
        for file in [
            "crates/harness/src/checkpoint.rs",
            "crates/harness/src/codec.rs",
            "crates/harness/src/frame.rs",
            "crates/harness/src/lease.rs",
            "crates/harness/src/merge.rs",
            "crates/harness/src/store.rs",
        ] {
            assert!(
                config.protected_files.iter().any(|p| p == file),
                "{file} must be on the protected_files list"
            );
            assert!(
                root.join(file).is_file(),
                "{file} listed in protected_files must exist"
            );
        }
        // None of the file-protected paths may sit inside a protected
        // member (that would double-scan and double-report).
        for file in &config.protected_files {
            assert!(
                !config
                    .protected
                    .iter()
                    .any(|member| file.starts_with(&format!("{member}/"))),
                "{file} is already covered by a protected crate"
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
        assert_eq!(names(scan_line("x.unwrap()", PANIC_TOKENS)), vec!["unwrap"]);
        assert!(scan_line("x.unwrap_or(0)", PANIC_TOKENS).is_empty());
        assert!(scan_line("fn unwrap(x: u32) {}", PANIC_TOKENS).is_empty());
        assert!(scan_line("#[allow(clippy::expect_used)]", PANIC_TOKENS).is_empty());
        assert_eq!(
            names(scan_line("panic!(\"boom\")", PANIC_TOKENS)),
            vec!["panic"]
        );
        assert!(scan_line("debug_assert!(true)", PANIC_TOKENS).is_empty());
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
    fn word_anchor_bounds() {
        assert_eq!(
            scan_line("use std::collections::HashMap;", NONDET_TOKENS).len(),
            1
        );
        assert!(scan_line("let MyHashMapLike = 3;", NONDET_TOKENS).is_empty());
        assert_eq!(
            names(scan_line("Instant::now()", NONDET_TOKENS)),
            vec!["Instant"]
        );
    }

    #[test]
    fn scan_line_reports_columns() {
        let hits = scan_line("    x.unwrap()", PANIC_TOKENS);
        assert_eq!(hits, vec![("unwrap", 6)]);
    }

    #[test]
    fn justification_requires_a_reason() {
        assert!(comment_allows(
            "// lint: allow(panic) — scoped threads fill every slot",
            "panic"
        ));
        assert!(comment_allows(
            "// lint: allow(nondet): cache only",
            "nondet"
        ));
        assert!(!comment_allows("// lint: allow(panic)", "panic"));
        assert!(!comment_allows("// lint: allow(panic) — ", "panic"));
        assert!(!comment_allows("// lint: allow(nondet) x", "nondet"));
    }

    #[test]
    fn allow_reason_extracts_the_text() {
        assert_eq!(
            allow_reason("// lint: allow(cast) — bounded by the u32 universe", "cast").as_deref(),
            Some("bounded by the u32 universe")
        );
        assert_eq!(allow_reason("// lint: allow(cast)", "cast"), None);
        assert_eq!(allow_reason("// lint: allow(cast) — ok", "alloc"), None);
    }

    #[test]
    fn allowance_looks_upward_through_annotations() {
        let src = "// lint: allow(panic) — provably infallible here\n#[allow(clippy::expect_used)]\nlet v = x.expect(\"set\");\n";
        let mut v = Vec::new();
        lint_source(src, Path::new("t.rs"), &mut v);
        assert!(v.is_empty(), "justified site must not fire: {v:?}");

        let src2 = "let ready = true;\n// lint: allow(panic) — reason\nlet a = 1;\nlet v = x.expect(\"set\");\n";
        let mut v2 = Vec::new();
        lint_source(src2, Path::new("t.rs"), &mut v2);
        assert_eq!(v2.len(), 1, "non-adjacent comment must not suppress");
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
    fn lint_source_runs_the_new_rules() {
        let src = "\
// lint: hot
pub fn hot_loop(xs: &[u64]) -> u32 {
    let mut buf = Vec::new();
    buf.push(xs.len() as u32);
    buf[0]
}
";
        let mut v = Vec::new();
        lint_source(src, Path::new("t.rs"), &mut v);
        let codes: Vec<&str> = v.iter().map(|x| x.rule.code()).collect();
        assert!(codes.contains(&"D7"), "Vec::new in hot fn: {v:?}");
        assert!(codes.contains(&"D5"), "narrowing cast: {v:?}");
        // Spans are 1-based char columns over the token.
        let d7 = v.iter().find(|x| x.rule == Rule::HotPathAlloc).unwrap();
        assert_eq!(d7.span, Some((19, 27)));
    }
}
