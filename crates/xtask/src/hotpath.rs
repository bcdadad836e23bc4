//! D7 — hot-path allocation hygiene.
//!
//! The engines' steady state is zero-allocation, gated *dynamically* by the
//! alloc-counting test at n=10^5 (DESIGN.md §13). That gate only catches
//! regressions on the paths the test happens to exercise; this rule is the
//! static backstop. A function annotated with a `// lint: hot` comment in
//! the block above its header must not contain allocating constructs:
//! `Vec::new`, `Box::new`, `format!`, `.collect()`, `.clone()`, `.to_vec()`,
//! and friends. Cold diagnostic branches inside a hot function justify the
//! individual line with `// lint: allow(alloc) — <reason>`.
//!
//! Span-awareness earns its keep here: `debug_assert!`/`debug_assert_eq!`/
//! `debug_assert_ne!` invocations are brace/paren-matched and blanked before
//! the scan, because they compile out of release builds — the tally-scan
//! oracle inside `window_tally_into` may allocate freely without tripping
//! the rule.

use crate::items::{Attribute, FnItem};
use crate::{annotation_lines_above, is_ident, Anchor};

/// Allocating constructs forbidden inside `// lint: hot` functions.
/// `Anchor::Path` tokens match qualified constructor calls; `Anchor::Method`
/// tokens match `.name(` / `.name::<…>(`; `Anchor::Macro` tokens match
/// `name!`.
pub const ALLOC_TOKENS: &[(&str, Anchor)] = &[
    ("Vec::new", Anchor::Path),
    ("Vec::with_capacity", Anchor::Path),
    ("VecDeque::new", Anchor::Path),
    ("String::new", Anchor::Path),
    ("String::from", Anchor::Path),
    ("String::with_capacity", Anchor::Path),
    ("Box::new", Anchor::Path),
    ("vec", Anchor::Macro),
    ("format", Anchor::Macro),
    ("to_vec", Anchor::Method),
    ("to_owned", Anchor::Method),
    ("to_string", Anchor::Method),
    ("collect", Anchor::Method),
    ("clone", Anchor::Method),
    ("with_capacity", Anchor::Method),
];

/// The annotation marker that opts a function into the D7 scan.
pub const HOT_MARKER: &str = "lint: hot";

/// Whether `item` carries a `// lint: hot` annotation: a comment containing
/// the marker on the header line itself or in the contiguous
/// comment/attribute block above it. `comments` is the
/// `(1-based line, text)` list from [`crate::Stripped`].
pub fn is_hot(
    item: &FnItem,
    src_lines: &[&str],
    attrs: &[Attribute],
    comments: &[(usize, String)],
) -> bool {
    let on = |l: usize| {
        comments
            .iter()
            .any(|(cl, text)| *cl == l && text.contains(HOT_MARKER))
    };
    on(item.header_line)
        || annotation_lines_above(src_lines, attrs, item.header_line)
            .into_iter()
            .any(on)
}

/// Blanks `debug_assert!` / `debug_assert_eq!` / `debug_assert_ne!`
/// invocation bodies (delimiter-matched, newline-preserving) so their
/// oracle expressions are exempt from the allocation scan.
pub fn mask_debug_asserts(code: &str) -> String {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    let mut out: Vec<char> = chars.clone();
    let mut i = 0usize;
    while i < n {
        if chars[i] != 'd' {
            i += 1;
            continue;
        }
        let rest: String = chars[i..n.min(i + 16)].iter().collect();
        let name_len = if rest.starts_with("debug_assert_eq") || rest.starts_with("debug_assert_ne")
        {
            15
        } else if rest.starts_with("debug_assert") {
            12
        } else {
            i += 1;
            continue;
        };
        let bounded = (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + name_len).is_some_and(|&c| !is_ident(c));
        if !bounded {
            i += name_len;
            continue;
        }
        // Require the macro bang, then blank through the matched delimiter.
        let mut j = i + name_len;
        while j < n && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'!') {
            i += name_len;
            continue;
        }
        j += 1;
        while j < n && chars[j].is_whitespace() {
            j += 1;
        }
        let (open, close) = match chars.get(j) {
            Some('(') => ('(', ')'),
            Some('[') => ('[', ']'),
            Some('{') => ('{', '}'),
            _ => {
                i = j;
                continue;
            }
        };
        let mut depth = 0usize;
        let mut k = j;
        while k < n {
            let c = chars[k];
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if c != '\n' {
                out[k] = ' ';
            }
            k += 1;
        }
        if k < n {
            out[k] = ' ';
        }
        i = k.saturating_add(1);
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{parse_attrs, parse_fns};
    use crate::strip_source;

    /// Which of `src`'s functions are hot, in source order.
    fn hot_flags(src: &str) -> Vec<bool> {
        let stripped = strip_source(src);
        let lines: Vec<&str> = src.lines().collect();
        let attrs = parse_attrs(&stripped.code, src);
        parse_fns(&stripped.code)
            .iter()
            .map(|f| is_hot(f, &lines, &attrs, &stripped.comments))
            .collect()
    }

    #[test]
    fn masks_debug_assert_family_only() {
        let src = "debug_assert_eq!(a.collect::<Vec<_>>(), b);\nassert_eq!(c, d);\nlet v: Vec<u32> = it.collect();\n";
        let masked = mask_debug_asserts(src);
        assert!(!masked.contains("a.collect"));
        assert!(masked.contains("assert_eq!(c, d);"));
        assert!(masked.contains("it.collect()"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn multiline_debug_assert_is_blanked_preserving_lines() {
        let src = "debug_assert_eq!(\n    xs.iter().copied().collect::<Vec<_>>(),\n    expected,\n);\nxs.len();\n";
        let masked = mask_debug_asserts(src);
        assert!(!masked.contains("collect"));
        assert!(masked.contains("xs.len();"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn hot_marker_detected_above_attributes() {
        let src = "// lint: hot\n#[inline]\n#[expect(\n    clippy::x,\n    reason = \"y\"\n)]\npub fn step() {}\n\npub fn cold() {}\n";
        assert_eq!(hot_flags(src), vec![true, false]);
    }

    #[test]
    fn hot_marker_on_header_line_counts() {
        assert_eq!(hot_flags("pub fn tally() { // lint: hot\n}\n"), vec![true]);
    }

    #[test]
    fn hot_marker_does_not_leak_past_code_lines() {
        let src = "// lint: hot\npub fn hot_one() {}\n\nlet x = 1;\npub fn unrelated() {}\n";
        assert_eq!(hot_flags(src), vec![true, false]);
    }
}
