//! The symbol pass behind sciflow: function definitions, call sites, and
//! type-definition hints, extracted per file from the token stream.
//!
//! This is deliberately *not* name resolution — there is no trait solver and
//! no import graph. The pass records, for every library file outside test
//! regions:
//!
//! * every `fn` definition with a body (name, line, `pub`-ness, and which
//!   tokens its body owns),
//! * every call site (`name(...)`, `recv.name(...)`, `qual::name(...)`)
//!   attributed to the innermost enclosing function, keeping the immediate
//!   path qualifier as a resolution hint, and every same-file function
//!   passed by name as an argument (`.map(name)`), which runs wherever its
//!   callee does,
//! * every type name a file defines or impls (`struct`/`enum`/`trait`/
//!   `union`/`impl` targets), so `Type::method(...)` calls can be narrowed
//!   to the files that actually implement `Type`.
//!
//! [`crate::callgraph`] turns these into an over-approximate call graph and
//! [`crate::flow`] propagates effects over it.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::TokenKind;
use crate::source::{FileKind, SourceFile};

/// One function definition with a body.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Function name (unqualified).
    pub name: String,
    /// Index into the analyzed file slice.
    pub file: usize,
    /// Owning crate (copied from the file for convenience).
    pub crate_name: String,
    /// Workspace-relative path (copied from the file).
    pub path: String,
    /// 1-based line of the `fn` token.
    pub line: u32,
    /// True when a `pub` marker precedes the definition.
    pub is_pub: bool,
}

/// One call site, attributed to the innermost enclosing function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling [`FnSym`].
    pub caller: u32,
    /// Callee name (unqualified).
    pub name: String,
    /// The immediate `qual::` path segment, when present (`marray::get` →
    /// `marray`, `NdArray::zeros` → `NdArray`).
    pub qualifier: Option<String>,
    /// True for `recv.name(...)` method calls.
    pub method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// The extracted workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All function definitions, in (file, token) order.
    pub fns: Vec<FnSym>,
    /// All call sites, in (file, token) order.
    pub calls: Vec<CallSite>,
    /// Function ids by name.
    pub by_name: BTreeMap<String, Vec<u32>>,
    /// Type name → indexes of files that define or impl it.
    pub types: BTreeMap<String, BTreeSet<usize>>,
    /// Per file, per token: innermost enclosing [`FnSym`] id, `None` in
    /// test regions. Used by the sink scan to attribute sink tokens to
    /// functions.
    pub owner: Vec<Vec<Option<u32>>>,
    /// Indexes of the files that were symbolized (library files of
    /// non-exempt crates); others have empty `owner` rows.
    pub files_used: Vec<usize>,
}

/// Keywords that look like calls when followed by `(` (`pub(crate)`,
/// `if (..)`, `return (a, b)`, ...).
const CALLISH_KEYWORDS: [&str; 20] = [
    "fn", "if", "while", "for", "match", "return", "loop", "in", "as", "let", "move", "unsafe",
    "where", "impl", "pub", "else", "mut", "ref", "use", "dyn",
];

/// Extract the symbol table from `files`. Only [`FileKind::Library`] files
/// for which `include(crate_name)` holds are symbolized; test regions inside
/// them are skipped entirely.
pub fn extract(files: &[SourceFile], include: &dyn Fn(&str) -> bool) -> SymbolTable {
    let mut tab = SymbolTable {
        owner: files.iter().map(|f| vec![None; f.tokens.len()]).collect(),
        ..SymbolTable::default()
    };

    for (fx, file) in files.iter().enumerate() {
        if file.kind != FileKind::Library || !include(&file.crate_name) {
            continue;
        }
        tab.files_used.push(fx);
        extract_file(fx, file, &mut tab);
    }

    for (ix, f) in tab.fns.iter().enumerate() {
        tab.by_name
            .entry(f.name.clone())
            .or_default()
            .push(ix as u32);
    }
    tab
}

/// Symbolize one file. Functions and each token's enclosing function come
/// from the file's own annotation ([`SourceFile::fn_defs`],
/// [`SourceFile::enclosing_fn`]); functions defined in test regions get no
/// symbol.
fn extract_file(fx: usize, file: &SourceFile, tab: &mut SymbolTable) {
    let toks = &file.tokens;
    let ident_at = |i: usize| toks.get(i).and_then(|t| t.kind.ident());

    let ids: Vec<Option<u32>> = file
        .fn_defs
        .iter()
        .map(|&at| {
            if file.is_test_code(at) {
                return None;
            }
            tab.fns.push(FnSym {
                name: ident_at(at + 1).unwrap_or_default().to_string(),
                file: fx,
                crate_name: file.crate_name.clone(),
                path: file.path.clone(),
                line: toks[at].line,
                is_pub: is_pub_before(file, at),
            });
            Some(tab.fns.len() as u32 - 1)
        })
        .collect();
    // Names of the functions this file defines, for by-name references.
    let local_fns: BTreeSet<&str> = file
        .fn_defs
        .iter()
        .filter(|&&at| !file.is_test_code(at))
        .filter_map(|&at| ident_at(at + 1))
        .collect();

    for (i, t) in toks.iter().enumerate() {
        if file.is_test_code(i) {
            continue;
        }
        let owner = file.enclosing_fn[i].and_then(|ix| ids[ix as usize]);
        tab.owner[fx][i] = owner;
        let TokenKind::Ident(s) = &t.kind else {
            continue;
        };
        match s.as_str() {
            "struct" | "enum" | "trait" | "union" => {
                if let Some(name) = ident_at(i + 1) {
                    tab.types.entry(name.to_string()).or_default().insert(fx);
                }
            }
            "impl" => {
                for name in impl_targets(file, i) {
                    tab.types.entry(name).or_default().insert(fx);
                }
            }
            name if !CALLISH_KEYWORDS.contains(&name) => {
                let call = owner.and_then(|caller| {
                    call_at(file, i, caller).or_else(|| fn_ref_at(file, i, caller, &local_fns))
                });
                if let Some(call) = call {
                    tab.calls.push(call);
                }
            }
            _ => {}
        }
    }
}

/// A `pub` / `pub(crate)` marker within the few tokens before the `fn`.
pub(crate) fn is_pub_before(file: &SourceFile, fn_ix: usize) -> bool {
    (1..=6).any(|back| {
        fn_ix
            .checked_sub(back)
            .and_then(|j| file.tokens.get(j))
            .is_some_and(|p| p.kind.ident() == Some("pub"))
    })
}

/// The type names an `impl` block targets: `impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo` (records both `Trait` and `Foo`).
fn impl_targets(file: &SourceFile, impl_ix: usize) -> Vec<String> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut angle: i32 = 0;
    let mut j = impl_ix + 1;
    // Scan to the body/brace; collect idents at angle depth 0.
    while j < toks.len() && out.len() < 4 {
        match &toks[j].kind {
            TokenKind::Open('{') if angle <= 0 => break,
            TokenKind::Punct("<") => angle += 1,
            TokenKind::Punct("<<") => angle += 2,
            TokenKind::Punct(">") => angle -= 1,
            TokenKind::Punct(">>") => angle -= 2,
            TokenKind::Ident(s) if angle <= 0 => {
                let skip = matches!(s.as_str(), "dyn" | "const" | "unsafe" | "for" | "where");
                if s == "where" {
                    break;
                }
                if !skip && s.chars().next().is_some_and(char::is_uppercase) {
                    out.push(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Classify token `i`, inside the body of function `caller`, as a call
/// site, if it is one: an identifier directly followed by `(` (or a
/// `::<...>(` turbofish), not itself a definition.
fn call_at(file: &SourceFile, i: usize, caller: u32) -> Option<CallSite> {
    let toks = &file.tokens;
    let name = toks[i].kind.ident()?;

    // Direct `name(` or turbofish `name::<T>(`.
    let open = match toks.get(i + 1).map(|t| &t.kind) {
        Some(TokenKind::Open('(')) => true,
        Some(TokenKind::Punct("::")) if toks.get(i + 2).is_some_and(|t| t.kind.is_punct("<")) => {
            let mut angle = 1i32;
            let mut j = i + 3;
            while j < toks.len() && angle > 0 && j < i + 40 {
                match &toks[j].kind {
                    TokenKind::Punct("<") => angle += 1,
                    TokenKind::Punct("<<") => angle += 2,
                    TokenKind::Punct(">") => angle -= 1,
                    TokenKind::Punct(">>") => angle -= 2,
                    _ => {}
                }
                j += 1;
            }
            angle <= 0 && toks.get(j).is_some_and(|t| t.kind == TokenKind::Open('('))
        }
        _ => false,
    };
    if !open {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if i > 0 && toks[i - 1].kind.ident() == Some("fn") {
        return None;
    }

    let (method, qualifier) = match i.checked_sub(1).map(|j| &toks[j].kind) {
        Some(TokenKind::Punct(".")) => (true, None),
        Some(TokenKind::Punct("::")) => {
            let q = i
                .checked_sub(2)
                .and_then(|j| toks.get(j))
                .and_then(|t| t.kind.ident())
                .map(str::to_string);
            (false, q)
        }
        _ => (false, None),
    };
    Some(CallSite {
        caller,
        name: name.to_string(),
        qualifier,
        method,
        line: toks[i].line,
    })
}

/// Classify token `i`, inside the body of function `caller`, as a function
/// passed by name: an identifier in argument position (after `(` or `,`,
/// before `)` or `,`, so neither a path segment nor a method) that names a
/// function defined in the same file. The callee may run wherever the
/// argument is called, so this is an edge from `caller`. Only same-file
/// names count, and [`crate::callgraph`] resolves a plain call to the
/// caller's file first, so a local variable that shares its name with a
/// function elsewhere adds no edge.
fn fn_ref_at(
    file: &SourceFile,
    i: usize,
    caller: u32,
    local_fns: &BTreeSet<&str>,
) -> Option<CallSite> {
    let toks = &file.tokens;
    let name = toks[i].kind.ident()?;
    let opens = i
        .checked_sub(1)
        .is_some_and(|j| matches!(toks[j].kind, TokenKind::Open('(') | TokenKind::Punct(",")));
    let closes = toks
        .get(i + 1)
        .is_some_and(|t| matches!(t.kind, TokenKind::Close(')') | TokenKind::Punct(",")));
    (opens && closes && local_fns.contains(name)).then(|| CallSite {
        caller,
        name: name.to_string(),
        qualifier: None,
        method: false,
        line: toks[i].line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tab(src: &str) -> SymbolTable {
        let f = SourceFile::parse("m.rs", "demo", FileKind::Library, src);
        extract(&[f], &|_| true)
    }

    #[test]
    fn defs_calls_and_owners() {
        let t =
            tab("pub fn outer() { helper(1); }\nfn helper(x: u32) -> u32 { x.wrapping_add(1) }\n");
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].name, "outer");
        assert!(t.fns[0].is_pub);
        assert!(!t.fns[1].is_pub);
        let call = t.calls.iter().find(|c| c.name == "helper").expect("call");
        assert_eq!(call.caller, 0);
        assert!(!call.method);
        let m = t
            .calls
            .iter()
            .find(|c| c.name == "wrapping_add")
            .expect("method call");
        assert!(m.method);
        assert_eq!(m.caller, 1);
    }

    #[test]
    fn qualifier_hints_are_kept() {
        let t = tab("fn f() { marray::reduce(1); NdArray::zeros(2); }\n");
        let q: Vec<Option<&str>> = t.calls.iter().map(|c| c.qualifier.as_deref()).collect();
        assert!(q.contains(&Some("marray")));
        assert!(q.contains(&Some("NdArray")));
    }

    #[test]
    fn impl_and_struct_targets_are_typed() {
        let t = tab("struct Foo;\nimpl Foo { fn a(&self) {} }\nimpl Clone for Bar { fn clone(&self) -> Bar { Bar } }\n");
        assert!(t.types.contains_key("Foo"));
        assert!(t.types.contains_key("Bar"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let t = tab("fn live() { x(); }\n#[cfg(test)]\nmod tests {\n    fn t() { hidden(); }\n}\n");
        assert_eq!(t.fns.len(), 1);
        assert!(t.calls.iter().all(|c| c.name != "hidden"));
    }

    #[test]
    fn trait_decls_do_not_open_bodies() {
        let t = tab("trait T { fn decl(&self); }\nfn real() { a(); }\n");
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "real");
    }

    #[test]
    fn fn_passed_by_name_is_a_call_from_the_enclosing_fn() {
        let t = tab(
            "fn a(v: Vec<u32>) { v.into_iter().map(b).for_each(drop); f(c, 1); }\n\
             fn b(x: u32) -> u32 { x }\nfn c() {}\n",
        );
        let by_name: Vec<(&str, u32)> = t
            .calls
            .iter()
            .filter(|c| !c.method)
            .map(|c| (c.name.as_str(), c.caller))
            .collect();
        assert!(by_name.contains(&("b", 0)), "{by_name:?}");
        assert!(by_name.contains(&("c", 0)), "{by_name:?}");
        // `drop` names no fn of this file, `v` is a parameter.
        assert!(by_name.iter().all(|(n, _)| *n != "drop" && *n != "v"));
    }

    #[test]
    fn argument_naming_no_same_file_fn_is_no_call() {
        // `work` is defined only in another file: the argument is a local
        // variable here, not a reference to that fn.
        let files = [
            SourceFile::parse(
                "a.rs",
                "demo",
                FileKind::Library,
                "fn a(work: u32) { g(work); }\n",
            ),
            SourceFile::parse("b.rs", "demo", FileKind::Library, "fn work() {}\n"),
        ];
        let t = extract(&files, &|_| true);
        assert!(t.calls.iter().all(|c| c.name != "work"));
    }

    #[test]
    fn turbofish_call_is_detected() {
        let t = tab("fn f() { parse::<u32>(\"1\"); }\n");
        assert!(t.calls.iter().any(|c| c.name == "parse"));
    }
}
