//! The per-file source model: lexed tokens plus the structural context the
//! rules need — `#[cfg(test)]` regions, enclosing-function names, and
//! parsed `// scilint: allow(...)` suppressions.

use crate::lex::{lex, Comment, Token, TokenKind};
use crate::rules::RULES;

/// What part of a crate a file belongs to. Rules only fire on
/// [`FileKind::Library`] code; the other kinds are still lexed because
/// cross-file rules (H002) search them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` — library code, fully linted.
    Library,
    /// `tests/**` — integration tests, exempt but searchable.
    Test,
    /// `benches/**` — benchmarks, exempt.
    Bench,
    /// `examples/**` — examples, exempt.
    Example,
}

/// A parsed `// scilint: allow(RULE, reason)` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Line of the comment.
    pub line: u32,
    /// Last line the suppression covers: the end of the statement that
    /// follows the comment (so multi-line chained calls and signatures stay
    /// covered), and never less than `line + 1`.
    pub end_line: u32,
}

impl Suppression {
    /// True when the suppression covers findings on `line`.
    pub fn covers(&self, line: u32) -> bool {
        self.line <= line && line <= self.end_line
    }
}

/// A malformed suppression (missing reason or unknown rule id).
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// Line of the offending comment.
    pub line: u32,
    /// `S001` (no reason) or `S002` (unknown rule).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used in findings.
    pub path: String,
    /// Owning crate, as profiled (directory name under `crates/`).
    pub crate_name: String,
    /// Library / test / bench / example.
    pub kind: FileKind,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// All comments.
    pub comments: Vec<Comment>,
    /// Per-token flag: inside a `#[cfg(test)]` or `#[test]` region.
    pub in_test: Vec<bool>,
    /// Per-token innermost enclosing function (index into `fn_defs`).
    pub enclosing_fn: Vec<Option<u32>>,
    /// Every function with a body, in the order its body opens: the index
    /// of its `fn` token, which an identifier (the name) follows.
    pub fn_defs: Vec<usize>,
    /// Well-formed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppressions (always reported).
    pub bad_suppressions: Vec<BadSuppression>,
}

impl SourceFile {
    /// Lex and annotate one file.
    pub fn parse(path: &str, crate_name: &str, kind: FileKind, src: &str) -> SourceFile {
        let lexed = lex(src);
        let (in_test, enclosing_fn, fn_defs) = annotate(&lexed.tokens);
        let (mut suppressions, bad_suppressions) = parse_suppressions(&lexed.comments);
        for s in &mut suppressions {
            s.end_line = statement_end(&lexed.tokens, s.line).max(s.line + 1);
        }
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            tokens: lexed.tokens,
            comments: lexed.comments,
            in_test,
            enclosing_fn,
            fn_defs,
            suppressions,
            bad_suppressions,
        }
    }

    /// True when token `i` is in code the rules should skip (test regions).
    pub fn is_test_code(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Name of the innermost function containing token `i`, if any.
    pub fn fn_name_at(&self, i: usize) -> Option<&str> {
        let def = self.fn_defs[self.enclosing_fn.get(i).copied().flatten()? as usize];
        self.tokens[def + 1].kind.ident()
    }
}

/// Single pass over the token stream computing, for every token, whether it
/// sits inside a `#[cfg(test)]`/`#[test]` item and which function encloses
/// it.
#[allow(clippy::type_complexity)]
fn annotate(tokens: &[Token]) -> (Vec<bool>, Vec<Option<u32>>, Vec<usize>) {
    let mut in_test = vec![false; tokens.len()];
    let mut enclosing = vec![None; tokens.len()];
    let mut fn_defs: Vec<usize> = Vec::new();

    let mut depth: i32 = 0;
    // Open test regions: brace depth at which each region's body started.
    let mut test_stack: Vec<i32> = Vec::new();
    // (fn_defs index, depth at body open).
    let mut fn_stack: Vec<(u32, i32)> = Vec::new();
    let mut pending_test = false;
    // Token index of a `fn NAME` header whose body has not opened yet.
    let mut pending_fn: Option<usize> = None;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Detect `#[cfg(test)` and `#[test]` attribute prefixes.
        if t.kind.is_punct("#")
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Open('['))
            )
        {
            let a = tokens.get(i + 2).and_then(|t| t.kind.ident());
            let b = tokens.get(i + 4).and_then(|t| t.kind.ident());
            if a == Some("test") || (a == Some("cfg") && b == Some("test")) {
                pending_test = true;
            }
        }
        match &t.kind {
            TokenKind::Ident(s)
                if s == "fn" && tokens.get(i + 1).is_some_and(|t| t.kind.ident().is_some()) =>
            {
                pending_fn = Some(i);
            }
            TokenKind::Punct(";") => {
                // A no-body item (`#[cfg(test)] use x;`, trait method decl)
                // consumed any pending attribute or fn header.
                pending_fn = None;
                pending_test = false;
            }
            TokenKind::Open('{') => {
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                if let Some(def) = pending_fn.take() {
                    fn_stack.push((fn_defs.len() as u32, depth));
                    fn_defs.push(def);
                }
                depth += 1;
            }
            TokenKind::Close('}') => {
                depth -= 1;
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                if fn_stack.last().map(|&(_, d)| d) == Some(depth) {
                    fn_stack.pop();
                }
            }
            _ => {}
        }
        in_test[i] = !test_stack.is_empty() || pending_test;
        enclosing[i] = fn_stack.last().map(|&(ix, _)| ix);
        i += 1;
    }
    (in_test, enclosing, fn_defs)
}

/// Last line of the statement (or item) a suppression on `from_line`
/// targets: scan from the first token at or after that line to the first
/// `;` or `,` at the scan's own delimiter depth, the `}` closing the first
/// top-level brace group (so a fn/impl/match *body* is part of its item's
/// span), or a `}` closing the enclosing block. Multi-line chained calls,
/// long signatures, and whole items are thus covered to their end instead
/// of only "the next line" — an allow above `fn f()` covers all of `f`,
/// the way an `#[allow]` attribute would.
fn statement_end(tokens: &[Token], from_line: u32) -> u32 {
    let start = tokens.partition_point(|t| t.line < from_line);
    let mut last = from_line;

    // Item heads (`pub fn f<A, B>(...) -> Result<X, Y> {`) legitimately
    // contain `,` outside any bracket pair the lexer pairs up (generics are
    // plain `<` `>` puncts), so for items the span runs to the end of the
    // body's balanced brace group instead of stopping at punctuation.
    let is_item = tokens[start..].iter().take(6).any(|t| {
        matches!(
            t.kind.ident(),
            Some("fn" | "impl" | "mod" | "struct" | "enum" | "trait" | "union")
        )
    }) || tokens.get(start).is_some_and(|t| t.kind.is_punct("#"));

    let mut depth: i32 = 0;
    let mut entered_body = false;
    for t in &tokens[start..] {
        last = t.line;
        match &t.kind {
            TokenKind::Open(c) => {
                if is_item && *c == '{' && depth == 0 {
                    entered_body = true;
                }
                depth += 1;
            }
            TokenKind::Close(c) => {
                if depth == 0 {
                    // The enclosing block ended before the statement did.
                    return last;
                }
                depth -= 1;
                if depth == 0 && *c == '}' && (entered_body || !is_item) {
                    // A top-level `{ ... }` body closed: end of the item
                    // (or of a block statement such as a whole `match`).
                    return last;
                }
            }
            TokenKind::Punct(";") if depth == 0 => return last,
            TokenKind::Punct(",") if depth == 0 && !is_item => return last,
            _ => {}
        }
    }
    last
}

/// Parse `scilint: allow(RULE, reason)` out of comment text.
fn parse_suppressions(comments: &[Comment]) -> (Vec<Suppression>, Vec<BadSuppression>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Directives are plain comments only; doc comments merely *describe*
        // the syntax and must never parse as suppressions.
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("scilint:") else {
            continue;
        };
        let rest = c.text[pos + "scilint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            bad.push(BadSuppression {
                line: c.line,
                code: "S001",
                message: format!(
                    "malformed scilint comment: expected `allow(RULE, reason)`, got `{rest}`"
                ),
            });
            continue;
        };
        let args = args.trim_start();
        let inner = args
            .strip_prefix('(')
            .and_then(|s| s.rfind(')').map(|e| &s[..e]));
        let Some(inner) = inner else {
            bad.push(BadSuppression {
                line: c.line,
                code: "S001",
                message: "malformed scilint allow: missing parentheses".to_string(),
            });
            continue;
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        if !RULES.iter().any(|r| r.id == rule) {
            bad.push(BadSuppression {
                line: c.line,
                code: "S002",
                message: format!("scilint allow names unknown rule `{rule}`"),
            });
            continue;
        }
        if reason.is_empty() {
            bad.push(BadSuppression {
                line: c.line,
                code: "S001",
                message: format!(
                    "scilint allow({rule}) has no reason; write `scilint: allow({rule}, why)`"
                ),
            });
            continue;
        }
        good.push(Suppression {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: c.line,
            // Refined to the enclosing statement's end by the caller, which
            // has the token stream.
            end_line: c.line + 1,
        });
    }
    (good, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("mem.rs", "demo", FileKind::Library, src)
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let f = parse(
            "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n fn t() { b(); }\n}\nfn live2() { c(); }\n",
        );
        let a = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("a"))
            .expect("a");
        let b = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("b"))
            .expect("b");
        let c = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("c"))
            .expect("c");
        assert!(!f.is_test_code(a));
        assert!(f.is_test_code(b));
        assert!(!f.is_test_code(c));
    }

    #[test]
    fn enclosing_fn_names() {
        let f = parse("fn outer() { inner_call(); }\nfn other() { x(); }");
        let call = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("inner_call"))
            .expect("call");
        assert_eq!(f.fn_name_at(call), Some("outer"));
        let x = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("x"))
            .expect("x");
        assert_eq!(f.fn_name_at(x), Some("other"));
    }

    #[test]
    fn suppression_with_reason_parses() {
        let f = parse("// scilint: allow(D001, lookup-only map, order never observed)\nlet x = 1;");
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].rule, "D001");
        assert!(f.suppressions[0].reason.contains("lookup-only"));
        assert!(f.bad_suppressions.is_empty());
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        let f = parse("// scilint: allow(D001)\nlet x = 1;");
        assert!(f.suppressions.is_empty());
        assert_eq!(f.bad_suppressions.len(), 1);
        assert_eq!(f.bad_suppressions[0].code, "S001");
    }

    #[test]
    fn suppression_spans_multiline_statement() {
        let f = parse(
            "// scilint: allow(H001, reason here)\nlet x = foo()\n    .bar()\n    .unwrap();\nlet y = 1;\n",
        );
        assert_eq!(f.suppressions.len(), 1);
        let s = &f.suppressions[0];
        assert!(s.covers(4), "chained-call end uncovered: {s:?}");
        assert!(!s.covers(5), "next statement must not be covered: {s:?}");
    }

    #[test]
    fn suppression_spans_whole_item_body() {
        let f = parse(
            "// scilint: allow(F001, boundary)\nfn driver() {\n    step()\n        .unwrap();\n}\nfn other() {}\n",
        );
        let s = &f.suppressions[0];
        assert!(s.covers(5), "fn body end uncovered: {s:?}");
        assert!(!s.covers(6), "next item must not be covered: {s:?}");
    }

    #[test]
    fn suppression_at_block_end_stays_minimal() {
        let f = parse("fn f() {\n    let x = 1;\n    // scilint: allow(D001, stale)\n}\n");
        let s = &f.suppressions[0];
        // The enclosing block closes immediately; span stays line..=line+1.
        assert_eq!(s.end_line, s.line + 1, "{s:?}");
    }

    #[test]
    fn suppression_with_unknown_rule_is_rejected() {
        let f = parse("// scilint: allow(Z999, because)\nlet x = 1;");
        assert_eq!(f.bad_suppressions.len(), 1);
        assert_eq!(f.bad_suppressions[0].code, "S002");
    }
}
