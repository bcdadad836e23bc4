//! A lightweight item parser over lexed (stripped + test-masked) sources.
//!
//! distill-lint v1 was purely line-oriented; the v2 rules need *spans*:
//! D7 (hot-path allocation hygiene) must know which lines belong to which
//! function body, and diagnostics want to name the enclosing function; the
//! suppression ledger must read every `#[expect]` whole. This module walks
//! the masked character stream and recovers every `fn` item — name,
//! signature line, and brace-matched body span — and every attribute by
//! delimiter matching, not a full grammar. Strings and comments are already
//! blanked by the lexer, so brace counting is exact; exotic syntax (braces
//! inside const-generic defaults) would confuse it, which `cargo clippy`
//! backstops at the semantic level like every other token-level rule here.

use crate::is_ident;

/// One parsed `fn` item (free function, inherent/trait method, or a nested
/// function — each `fn` keyword yields its own item, so spans may nest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub header_line: usize,
    /// 1-based lines of the body's `{` and `}` (inclusive). Declarations
    /// without a body (trait method signatures) are not emitted.
    pub body_lines: (usize, usize),
}

/// One attribute, `#[…]` or `#![…]`, with its brackets matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// 1-based lines of its `#` and of its closing `]`.
    pub lines: (usize, usize),
    /// The text between the brackets in masked code (strings and comments
    /// blanked, so delimiters inside them cannot confuse a parse).
    pub masked: String,
    /// The same text in the original source.
    pub source: String,
}

impl FnItem {
    /// Whether `line` (1-based) falls inside this function's body braces.
    pub fn contains_line(&self, line: usize) -> bool {
        self.body_lines.0 <= line && line <= self.body_lines.1
    }
}

/// 0-based char index of each line start in `chars`.
pub(crate) fn line_starts(chars: &[char]) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, &c) in chars.iter().enumerate() {
        if c == '\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line holding char index `idx`.
pub(crate) fn line_of(starts: &[usize], idx: usize) -> usize {
    starts.partition_point(|&s| s <= idx)
}

/// Parses every `fn` item out of masked code.
pub fn parse_fns(masked: &str) -> Vec<FnItem> {
    let chars: Vec<char> = masked.chars().collect();
    let starts = line_starts(&chars);
    let n = chars.len();
    let mut items = Vec::new();
    let mut i = 0usize;
    while i + 1 < n {
        // Word-bounded `fn` keyword.
        if chars[i] != 'f' || chars[i + 1] != 'n' {
            i += 1;
            continue;
        }
        let bounded = (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 2).is_some_and(|c| c.is_whitespace());
        if !bounded {
            i += 1;
            continue;
        }
        let header_line = line_of(&starts, i);
        // Function name (skipping whitespace). A non-identifier here means
        // this was a bare `fn` fragment (e.g. an `fn()` pointer type, which
        // has no space), so skip it.
        let mut j = i + 2;
        while j < n && chars[j].is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < n && is_ident(chars[j]) {
            j += 1;
        }
        if j == name_start {
            i += 2;
            continue;
        }
        let name: String = chars[name_start..j].iter().collect();
        // Scan the signature for the body `{` at bracket depth 0; a `;`
        // first means a bodyless declaration. Angle brackets are ignored:
        // generic argument lists contain neither `{` nor `;` in this
        // codebase's (and almost any) real code.
        let mut depth = 0usize;
        let mut body_open = None;
        while j < n {
            match chars[j] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                '{' if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j.max(i + 2);
            continue;
        };
        // Brace-match the body.
        let mut brace = 0usize;
        let mut k = open;
        let close = loop {
            if k >= n {
                break n.saturating_sub(1);
            }
            match chars[k] {
                '{' => brace += 1,
                '}' => {
                    brace -= 1;
                    if brace == 0 {
                        break k;
                    }
                }
                _ => {}
            }
            k += 1;
        };
        items.push(FnItem {
            name,
            header_line,
            body_lines: (line_of(&starts, open), line_of(&starts, close)),
        });
        // Keep scanning *inside* the body too: nested fns get their own
        // (narrower) items, and innermost-span attribution picks them up.
        i = open + 1;
    }
    items
}

/// Parses every attribute out of masked code. The lexer blanks in place,
/// so a char index into `masked` is the same index into `src`.
pub fn parse_attrs(masked: &str, src: &str) -> Vec<Attribute> {
    let chars: Vec<char> = masked.chars().collect();
    let source: Vec<char> = src.chars().collect();
    let starts = line_starts(&chars);
    let n = chars.len();
    let mut attrs = Vec::new();
    let mut i = 0usize;
    while i < n {
        if chars[i] != '#' {
            i += 1;
            continue;
        }
        let mut open = i + 1;
        if chars.get(open) == Some(&'!') {
            open += 1;
        }
        while open < n && chars[open].is_whitespace() {
            open += 1;
        }
        if chars.get(open) != Some(&'[') {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut close = open;
        while close < n {
            match chars[close] {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        attrs.push(Attribute {
            lines: (line_of(&starts, i), line_of(&starts, close.min(n - 1))),
            masked: chars[open + 1..close].iter().collect(),
            source: source.get(open + 1..close).unwrap_or(&[]).iter().collect(),
        });
        i = close + 1;
    }
    attrs
}

/// The innermost parsed function whose body contains `line`, if any.
pub fn innermost_containing(items: &[FnItem], line: usize) -> Option<&FnItem> {
    items
        .iter()
        .filter(|f| f.contains_line(line))
        .min_by_key(|f| f.body_lines.1 - f.body_lines.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_source;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_fns(&strip_source(src).code)
    }

    #[test]
    fn finds_simple_and_nested_fns() {
        let src =
            "fn outer() {\n    fn inner(x: u32) -> u32 { x }\n    inner(1);\n}\nfn tail() {}\n";
        let fns = parse(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "tail"]);
        let outer = &fns[0];
        assert_eq!(outer.body_lines, (1, 4));
        let inner = &fns[1];
        assert_eq!(inner.body_lines, (2, 2));
        // Innermost attribution: line 2 belongs to `inner`, line 3 to `outer`.
        assert_eq!(innermost_containing(&fns, 2).unwrap().name, "inner");
        assert_eq!(innermost_containing(&fns, 3).unwrap().name, "outer");
    }

    #[test]
    fn skips_bodyless_declarations_and_fn_pointer_types() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) -> u32 { 1 }\n}\nfn takes(f: fn(u32) -> u32) -> u32 { f(2) }\n";
        let fns = parse(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default", "takes"]);
    }

    #[test]
    fn signature_braces_after_paren_depth() {
        let src = "fn f(xs: &[u32; 3]) -> bool {\n    xs.iter().any(|&x| x > 0)\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].body_lines, (1, 3));
    }

    #[test]
    fn attributes_are_bracket_matched_across_lines() {
        let src = "#[inline]\n#![expect(\n    x,\n    reason = \"a ] in a string\",\n)]\nfn f() {}\nlet v = xs[0]; // #[not] an attribute\n#[cfg(x)] fn g() {}\n";
        let attrs = parse_attrs(&strip_source(src).code, src);
        let spans: Vec<(usize, usize)> = attrs.iter().map(|a| a.lines).collect();
        assert_eq!(spans, vec![(1, 1), (2, 5), (8, 8)]);
        assert_eq!(attrs[0].source, "inline");
        assert!(attrs[1].source.contains("\"a ] in a string\""));
        assert!(!attrs[1].masked.contains("string"));
    }

    #[test]
    fn strings_cannot_confuse_brace_matching() {
        // The lexer blanks the unbalanced brace inside the string before the
        // parser ever sees it.
        let src = "fn g() -> &'static str {\n    \"unbalanced { brace\"\n}\nfn h() {}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].body_lines, (1, 3));
    }
}
