//! D5 — lossy-cast audit.
//!
//! PR 6 established the u32 id-space contract (`PlayerId::from_index`,
//! `player_count`, `TryFrom` conversions); the remaining way to silently
//! break it is a bare `expr as u32`. This pass finds every `as <numeric>`
//! cast in masked code and classifies it:
//!
//! - **Visible source type** (a chained cast `x as u64 as u32` or a suffixed
//!   literal `5i64 as u64`): flagged when the conversion can lose
//!   information — truncation, sign change, or float-precision loss
//!   (`u64 as f64` is inexact above 2^53).
//! - **Invisible source type** with a *narrow* target (`u8..u32`, `i8..i32`,
//!   `f32`): flagged as possibly-narrowing, because a token scanner cannot
//!   prove the source fits. Widening targets (`u64`/`usize`/`i64`/`f64`…)
//!   pass — a cast to a 64-bit target is lossy only from 128-bit or float
//!   sources, which this codebase's protected crates do not use on those
//!   paths, and clippy's `cast_possible_truncation`/`cast_sign_loss`
//!   (enabled at `warn` in `[workspace.lints]`) backstop the scan
//!   semantically, mirroring how D4 backstops D1.
//!
//! Justification: `// lint: allow(cast) — <reason>` per the DESIGN.md §9
//! convention.

use crate::is_ident;
use crate::items::{line_of, line_starts};

/// A primitive numeric type named as a cast target (or visible source).
/// Variants mirror the Rust primitive names one-to-one.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumTy {
    U8,
    U16,
    U32,
    U64,
    U128,
    Usize,
    I8,
    I16,
    I32,
    I64,
    I128,
    Isize,
    F32,
    F64,
}

impl NumTy {
    /// Parses a primitive numeric type name.
    pub fn parse(word: &str) -> Option<Self> {
        Some(match word {
            "u8" => Self::U8,
            "u16" => Self::U16,
            "u32" => Self::U32,
            "u64" => Self::U64,
            "u128" => Self::U128,
            "usize" => Self::Usize,
            "i8" => Self::I8,
            "i16" => Self::I16,
            "i32" => Self::I32,
            "i64" => Self::I64,
            "i128" => Self::I128,
            "isize" => Self::Isize,
            "f32" => Self::F32,
            "f64" => Self::F64,
            _ => return None,
        })
    }

    /// The primitive's source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Self::U8 => "u8",
            Self::U16 => "u16",
            Self::U32 => "u32",
            Self::U64 => "u64",
            Self::U128 => "u128",
            Self::Usize => "usize",
            Self::I8 => "i8",
            Self::I16 => "i16",
            Self::I32 => "i32",
            Self::I64 => "i64",
            Self::I128 => "i128",
            Self::Isize => "isize",
            Self::F32 => "f32",
            Self::F64 => "f64",
        }
    }

    /// Width in bits; `usize`/`isize` are treated as 64-bit (the repro
    /// targets 64-bit hosts; DESIGN.md §13 records the id-space contract).
    fn bits(self) -> u32 {
        match self {
            Self::U8 | Self::I8 => 8,
            Self::U16 | Self::I16 => 16,
            Self::U32 | Self::I32 | Self::F32 => 32,
            Self::U128 | Self::I128 => 128,
            _ => 64,
        }
    }

    fn is_float(self) -> bool {
        matches!(self, Self::F32 | Self::F64)
    }

    fn is_signed(self) -> bool {
        matches!(
            self,
            Self::I8 | Self::I16 | Self::I32 | Self::I64 | Self::I128 | Self::Isize
        )
    }

    /// Mantissa precision of a float target (bits of integer it can hold
    /// exactly): 24 for f32, 53 for f64.
    fn mantissa_bits(self) -> u32 {
        match self {
            Self::F32 => 24,
            Self::F64 => 53,
            _ => 0,
        }
    }

    /// A *narrow* target is one an invisible-source cast is assumed lossy
    /// into: sub-64-bit integers and `f32`. An `as f64` from an unknown
    /// integer source is allowed at the token level (the visible-source
    /// path still flags `u64 as f64`, and clippy covers the rest
    /// semantically).
    fn is_narrow_target(self) -> bool {
        match self {
            Self::F64 => false,
            Self::F32 => true,
            _ => self.bits() < 64,
        }
    }
}

/// One `as <numeric>` cast site in masked code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastSite {
    /// 1-based line of the `as` keyword.
    pub line: usize,
    /// 1-based char columns `[start, end)` spanning `as <ty>`.
    pub span: (usize, usize),
    /// The cast's target type.
    pub target: NumTy,
    /// Source type when syntactically visible (chained cast or suffixed
    /// literal operand); `None` when only the semantic layer could know.
    pub source: Option<NumTy>,
}

/// Whether a `src as dst` conversion is value-preserving for every `src`
/// value.
fn lossless(src: NumTy, dst: NumTy) -> bool {
    match (src.is_float(), dst.is_float()) {
        (true, true) => dst.bits() >= src.bits(),
        (true, false) => false, // float -> int truncates fractions, saturates
        (false, true) => src.bits() <= dst.mantissa_bits(),
        (false, false) => {
            if src.is_signed() == dst.is_signed() {
                dst.bits() >= src.bits()
            } else if src.is_signed() {
                false // signed -> unsigned reinterprets negatives
            } else {
                dst.bits() > src.bits() // unsigned -> signed needs headroom
            }
        }
    }
}

/// Classifies a cast site: `None` means allowed, `Some(message)` is a D5
/// finding (still subject to `allow(cast)` justification by the caller).
pub fn classify(site: &CastSite) -> Option<String> {
    let dst = site.target;
    match site.source {
        Some(src) => {
            if lossless(src, dst) {
                return None;
            }
            let flavor = if src.is_float() && !dst.is_float() {
                "drops the fractional part and saturates"
            } else if !src.is_float() && dst.is_float() {
                return Some(format!(
                    "lossy cast `{} as {}` is inexact above 2^{}; keep integer arithmetic or justify with `// lint: allow(cast) — <reason>`",
                    src.name(),
                    dst.name(),
                    dst.mantissa_bits()
                ));
            } else if src.is_signed() != dst.is_signed() {
                "changes the sign interpretation of negative values"
            } else {
                "truncates high bits"
            };
            Some(format!(
                "lossy cast `{} as {}` {}; use a typed conversion (`billboard::ids`, `player_count`, `try_from`) or justify with `// lint: allow(cast) — <reason>`",
                src.name(),
                dst.name(),
                flavor
            ))
        }
        None => {
            if dst.is_narrow_target() {
                Some(format!(
                    "possibly narrowing cast `as {}` (source type not visible to the token scan); use a typed conversion (`billboard::ids`, `player_count`, `try_from`) or justify with `// lint: allow(cast) — <reason>`",
                    dst.name()
                ))
            } else {
                None
            }
        }
    }
}

/// Scans masked code for `as <numeric>` casts, resolving the source type
/// when it is syntactically visible.
pub fn scan_casts(masked: &str) -> Vec<CastSite> {
    let chars: Vec<char> = masked.chars().collect();
    let starts = line_starts(&chars);
    let n = chars.len();
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i + 1 < n {
        if chars[i] != 'a' || chars[i + 1] != 's' {
            i += 1;
            continue;
        }
        let bounded =
            (i == 0 || !is_ident(chars[i - 1])) && chars.get(i + 2).is_none_or(|&c| !is_ident(c));
        if !bounded {
            i += 1;
            continue;
        }
        // Target type: next identifier word.
        let mut j = i + 2;
        while j < n && chars[j].is_whitespace() {
            j += 1;
        }
        let ty_start = j;
        while j < n && is_ident(chars[j]) {
            j += 1;
        }
        let word: String = chars[ty_start..j].iter().collect();
        let Some(target) = NumTy::parse(&word) else {
            // `use a as b`, `as &str`, `as *const T`, … — not a numeric cast.
            i += 2;
            continue;
        };
        let line = line_of(&starts, i);
        let col = i - starts[line - 1] + 1;
        let end_col = j - starts[line - 1] + 1;
        sites.push(CastSite {
            line,
            span: (col, end_col),
            target,
            source: visible_source(&chars, i),
        });
        i = j;
    }
    sites
}

/// Resolves the operand type of the cast whose `as` keyword starts at
/// `as_idx`, when it is syntactically visible: a chained cast
/// (`… as u64 as usize`), a suffixed literal (`5i64 as u64`), or a
/// parenthesized group whose content is one of those.
fn visible_source(chars: &[char], as_idx: usize) -> Option<NumTy> {
    let mut j = as_idx;
    // Step back over whitespace preceding `as`.
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    match chars[j - 1] {
        c if is_ident(c) => {
            let end = j;
            let mut s = j;
            while s > 0 && is_ident(chars[s - 1]) {
                s -= 1;
            }
            let word: String = chars[s..end].iter().collect();
            if let Some(ty) = NumTy::parse(&word) {
                // `<ty>` directly before `as` is itself a cast target iff the
                // word before it is `as`: a chained cast reveals the type.
                if preceded_by_as(chars, s) {
                    return Some(ty);
                }
                return None;
            }
            suffixed_literal(&word)
        }
        ')' => {
            // Balanced group: `( … ) as ty`. Visible if the group is a
            // suffixed literal (possibly negated) or ends in a chained cast.
            let close = j - 1;
            let mut depth = 1usize;
            let mut k = close;
            while k > 0 {
                k -= 1;
                match chars[k] {
                    ')' => depth += 1,
                    '(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 {
                return None;
            }
            let inner: String = chars[k + 1..close].iter().collect();
            let inner = inner.trim();
            let body = inner.strip_prefix('-').unwrap_or(inner).trim();
            if body.chars().all(is_ident) {
                if let Some(ty) = suffixed_literal(body) {
                    return Some(ty);
                }
            }
            // Trailing chained cast inside the group: `(x % n as u64) as …`.
            let inner_chars: Vec<char> = inner.chars().collect();
            let mut e = inner_chars.len();
            while e > 0 && is_ident(inner_chars[e - 1]) {
                e -= 1;
            }
            let tail: String = inner_chars[e..].iter().collect();
            if let Some(ty) = NumTy::parse(&tail) {
                if preceded_by_as(&inner_chars, e) {
                    return Some(ty);
                }
            }
            None
        }
        _ => None,
    }
}

/// Whether the word ending just before index `s` (skipping whitespace) is a
/// word-bounded `as`.
fn preceded_by_as(chars: &[char], mut s: usize) -> bool {
    while s > 0 && chars[s - 1].is_whitespace() {
        s -= 1;
    }
    s >= 2 && chars[s - 2] == 'a' && chars[s - 1] == 's' && (s == 2 || !is_ident(chars[s - 3]))
}

/// Parses a numeric literal with an explicit type suffix (`42u64`,
/// `0xFFu32`, `2.5f64`, `9_007u64`), returning the suffix type.
fn suffixed_literal(word: &str) -> Option<NumTy> {
    if !word.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    const SUFFIXES: [&str; 14] = [
        "u128", "i128", "usize", "isize", "u16", "u32", "u64", "i16", "i32", "i64", "f32", "f64",
        "u8", "i8",
    ];
    for suf in SUFFIXES {
        if let Some(prefix) = word.strip_suffix(suf) {
            if prefix.is_empty() {
                continue;
            }
            let radix_body = prefix
                .strip_prefix("0x")
                .or_else(|| prefix.strip_prefix("0o"))
                .or_else(|| prefix.strip_prefix("0b"))
                .unwrap_or(prefix);
            if radix_body
                .chars()
                .all(|c| c.is_ascii_hexdigit() || matches!(c, '_' | '.' | 'e' | 'E' | '+' | '-'))
            {
                return NumTy::parse(suf);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<CastSite> {
        scan_casts(src)
    }

    fn verdicts(src: &str) -> Vec<Option<String>> {
        sites(src).iter().map(classify).collect()
    }

    #[test]
    fn widening_casts_pass() {
        for src in [
            "let a = x as u64;",
            "let b = x as usize;",
            "let c = x as f64;",
            "let d = 7u32 as u64;",
            "let e = 7u32 as usize;",
            "let f = 3u16 as i32;",
            "let g = 1u32 as f64;",
        ] {
            assert_eq!(verdicts(src), vec![None], "src = {src}");
        }
    }

    #[test]
    fn narrow_unknown_source_fires() {
        for (src, ty) in [
            ("let a = x as u32;", "u32"),
            ("let b = len() as i32;", "i32"),
            ("let c = q as f32;", "f32"),
            ("let d = v[0] as u8;", "u8"),
        ] {
            let v = verdicts(src);
            assert_eq!(v.len(), 1, "src = {src}");
            let msg = v[0].as_deref().expect("should fire");
            assert!(msg.contains(ty), "{msg}");
            assert!(msg.contains("possibly narrowing"), "{msg}");
        }
    }

    #[test]
    fn visible_lossy_casts_fire_with_tailored_messages() {
        let v = verdicts("let a = 5u64 as u32;");
        assert!(v[0].as_deref().unwrap().contains("truncates high bits"));
        let v = verdicts("let b = (-5i64) as u64;");
        assert!(v[0].as_deref().unwrap().contains("sign interpretation"));
        let v = verdicts("let c = 9_007_199_254_740_993u64 as f64;");
        assert!(v[0].as_deref().unwrap().contains("inexact above 2^53"));
        let v = verdicts("let d = 1.5f64 as u64;");
        assert!(v[0].as_deref().unwrap().contains("fractional"));
        let v = verdicts("let e = 1.5f64 as f32;");
        assert!(v[0].as_deref().unwrap().contains("as f32"));
    }

    #[test]
    fn chained_cast_reveals_source() {
        // `x as u64 as usize`: second hop sees a visible u64 source (lossless).
        let v = verdicts("let a = x as u64 as usize;");
        assert_eq!(v, vec![None, None]);
        // `x as u64 as u32`: second hop is a visible truncation.
        let v = verdicts("let a = x as u64 as u32;");
        assert!(v[0].is_none());
        assert!(v[1].as_deref().unwrap().contains("`u64 as u32`"));
        // Group with a trailing chained cast: `(x % n as u64) as usize` is a
        // visible u64 -> usize (lossless on 64-bit).
        let v = verdicts("let a = (x % n as u64) as usize;");
        assert_eq!(v, vec![None, None]);
    }

    #[test]
    fn non_numeric_as_is_ignored() {
        for src in [
            "use std::collections::BTreeMap as Map;",
            "let s = x as &str;",
            "let p = q as *const u8;",
            "fn as_u64(&self) -> u64 { self.0 }",
            "let r = v.as_u64() as f64;", // method call: unknown source, wide target
        ] {
            assert!(verdicts(src).iter().all(Option::is_none), "src = {src}");
        }
    }

    #[test]
    fn spans_point_at_the_cast() {
        let s = sites("let id = raw as u32;");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].line, 1);
        assert_eq!(s[0].span, (14, 20)); // `as u32`
    }
}
