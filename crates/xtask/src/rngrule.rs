//! D6 — RNG stream discipline: the `Stream::Aux` tag check.
//!
//! Bit-exact determinism across thread counts (DESIGN.md §7, §13) holds
//! because every random decision draws from a `stream_rng(seed, Stream::…)`
//! stream with a collision-free tag layout: player tags occupy `[0, 2^32)`,
//! singleton streams sit at `2^40 + i`, and auxiliary streams map
//! `Aux(k)` to `2^41 + k`. Two things can silently break it:
//!
//! 1. **Raw seed arithmetic** outside `crates/sim/src/rng.rs` — hand-rolled
//!    `seed_from_u64(seed ^ 17)` constructions reintroduce exactly the
//!    cross-stream correlation the SplitMix64 derivation exists to prevent.
//!    Clippy bans these: `clippy.toml` lists the seeding methods under
//!    `disallowed-methods`.
//! 2. **`Aux` tag collisions** — two subsystems picking the same `k`, or a
//!    `k` large enough that `2^41 + k` wraps back into the reserved player
//!    and singleton namespaces. No type sees these, so this pass does.
//!
//! It requires `Stream::Aux` tags to be integer literals (a computed tag
//! cannot be collision-checked statically), and collects every literal tag
//! *workspace-wide* to detect duplicates and namespace wraps.
//! Justification: `// lint: allow(rng) — <reason>`.

use std::path::PathBuf;

use crate::is_ident;
use crate::items::{line_of, line_starts};

/// The reserved tag space: `Aux(k)` maps to `(1 << 41) + k`, so any `k` at
/// or above `2^64 - 2^41` wraps back under `2^41` into the player /
/// singleton namespaces.
pub const AUX_WRAP_THRESHOLD: u128 = (1u128 << 64) - (1u128 << 41);

/// One `Stream::Aux(…)` construction site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuxSite {
    /// Repo-relative source path (filled in by the workspace walk).
    pub file: PathBuf,
    /// 1-based line of the `Stream::Aux` token.
    pub line: usize,
    /// 1-based char columns `[start, end)` of `Stream::Aux(…)` on that line.
    pub span: (usize, usize),
    /// The literal tag value; `None` when the argument is not an integer
    /// literal (pattern binding, computed expression).
    pub value: Option<u64>,
    /// Reason attached via `// lint: allow(rng) — <reason>`, if any;
    /// resolved eagerly because the collision check runs after per-file
    /// context is gone.
    pub allow_reason: Option<String>,
}

/// Scans masked code for `Stream::Aux(…)` sites. `file`/`allow_reason` are
/// left empty for the caller to fill in.
pub fn scan_aux(masked: &str) -> Vec<AuxSite> {
    let needle: Vec<char> = "Stream::Aux".chars().collect();
    let chars: Vec<char> = masked.chars().collect();
    let starts = line_starts(&chars);
    let n = chars.len();
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i + needle.len() <= n {
        if chars[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        let bounded = (i == 0 || !(is_ident(chars[i - 1]) || chars[i - 1] == ':'))
            && chars.get(i + needle.len()).is_none_or(|&c| !is_ident(c));
        if !bounded {
            i += needle.len();
            continue;
        }
        let mut j = i + needle.len();
        while j < n && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'(') {
            // A bare path mention (e.g. in a `use` list): not a construction.
            i = j;
            continue;
        }
        // Balanced argument group.
        let mut depth = 0usize;
        let mut k = j;
        while k < n {
            match chars[k] {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let arg: String = chars[j + 1..k.min(n)].iter().collect();
        let line = line_of(&starts, i);
        let col = i - starts[line - 1] + 1;
        let end_col = k.min(n.saturating_sub(1)) + 1 - starts[line - 1] + 1;
        sites.push(AuxSite {
            file: PathBuf::new(),
            line,
            span: (col, end_col.min(col + 200)),
            value: parse_u64_literal(arg.trim()),
            allow_reason: None,
        });
        i = k.saturating_add(1);
    }
    sites
}

/// Parses an integer literal (decimal, `0x`/`0o`/`0b`, `_` separators,
/// optional `u64`/`usize` suffix) to a `u64`.
fn parse_u64_literal(text: &str) -> Option<u64> {
    let body = text
        .strip_suffix("u64")
        .or_else(|| text.strip_suffix("usize"))
        .or_else(|| text.strip_suffix("u32"))
        .unwrap_or(text);
    let body: String = body.chars().filter(|&c| c != '_').collect();
    if body.is_empty() {
        return None;
    }
    let (digits, radix) = if let Some(hex) = body.strip_prefix("0x") {
        (hex.to_string(), 16)
    } else if let Some(oct) = body.strip_prefix("0o") {
        (oct.to_string(), 8)
    } else if let Some(bin) = body.strip_prefix("0b") {
        (bin.to_string(), 2)
    } else {
        (body, 10)
    };
    u64::from_str_radix(&digits, radix).ok()
}

/// Whether a literal tag wraps out of the `Aux` namespace into reserved
/// stream-tag space.
pub fn wraps_reserved(value: u64) -> bool {
    u128::from(value) >= AUX_WRAP_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_literal_and_computed_aux_tags() {
        let src = "let a = stream_rng(s, Stream::Aux(7));\nlet b = stream_rng(s, Stream::Aux(base + 1));\n";
        let sites = scan_aux(src);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].value, Some(7));
        assert_eq!(sites[0].line, 1);
        assert_eq!(sites[1].value, None);
    }

    #[test]
    fn literal_forms_parse() {
        assert_eq!(parse_u64_literal("42"), Some(42));
        assert_eq!(parse_u64_literal("4_2u64"), Some(42));
        assert_eq!(parse_u64_literal("0x2A"), Some(42));
        assert_eq!(parse_u64_literal("0b101010"), Some(42));
        assert_eq!(parse_u64_literal("k"), None);
        assert_eq!(parse_u64_literal(""), None);
    }

    #[test]
    fn match_arm_binding_is_a_computed_tag() {
        // `Stream::Aux(k) => …` in a pattern position parses as non-literal;
        // only the RNG home module (exempt) may match on tags.
        let sites = scan_aux("match s { Stream::Aux(k) => k, _ => 0 }");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].value, None);
    }

    #[test]
    fn wrap_threshold() {
        assert!(!wraps_reserved(0));
        assert!(!wraps_reserved((1u64 << 63) - 1));
        assert!(wraps_reserved(u64::MAX));
        assert!(wraps_reserved(u64::MAX - (1u64 << 41) + 1));
        assert!(!wraps_reserved(u64::MAX - (1u64 << 41)));
    }

    #[test]
    fn bare_path_mention_is_not_a_site() {
        let sites =
            scan_aux("use crate::rng::Stream; // Stream::Aux docs\nlet t = Stream::Adversary;\n");
        assert!(sites.is_empty());
    }
}
