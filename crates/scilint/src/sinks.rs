//! The sink grammar: the one place that says which tokens are hash-order,
//! clock or randomness reads, panics, payload copies, thread spawns,
//! ambient reads, prints or ledger bumps.
//!
//! [`classify`] names the sink a single token is, if any. The token rules
//! D001–D003, C001 and H001 call it for the tokens they flag, and
//! [`scan`] runs it over every function-owned token of the symbolized
//! files once, for the two interprocedural passes: [`crate::flow`] maps
//! sink kinds onto its effect lattice and [`crate::purity`] onto its
//! purity levels. Neither keeps an ident list of its own, so a sink that
//! one of them recognizes is the sink the other and the token rules
//! recognize too.

use crate::lex::{Token, TokenKind};
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// What a sink token does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `HashMap`/`HashSet`: iteration order depends on the hash seed.
    HashOrder,
    /// `Instant`/`SystemTime`: reads the clock.
    Clock,
    /// `thread_rng`/`from_entropy`/`RandomState`/`rand::`: ambient
    /// randomness.
    Randomness,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`.
    PanicMacro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `.clone()`/`.to_vec()` on a chunk payload outside a sanctioned
    /// copy function.
    PayloadCopy,
    /// `spawn(..)` outside `parexec/src/morsel.rs`, the workspace's single
    /// sanctioned spawn site.
    Spawn,
    /// A qualified call that reads env, config, thread-count or process
    /// state (`env::var(..)`, `thread::available_parallelism()`, ...).
    AmbientRead,
    /// `println!`/`eprintln!`/`print!`/`eprint!`.
    Print,
    /// An atomic read-modify-write (`.fetch_add(..)`, ...): a bump of a
    /// global ledger such as `CopyCounter`.
    LedgerBump,
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
const RAND_IDENTS: [&str; 3] = ["thread_rng", "from_entropy", "RandomState"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Receiver identifiers treated as chunk payloads. Method-call results
/// (`...).to_vec()`, `...].clone()`) are always treated as payloads.
const PAYLOAD_RECEIVERS: [&str; 12] = [
    "chunk",
    "chunks",
    "full",
    "value",
    "fed",
    "vol",
    "volume",
    "tuples",
    "fragments",
    "blob",
    "payload",
    "buf",
];
/// Nullary metadata accessors whose results are shape/length slices — a few
/// `usize`, not chunk payloads. Copying them is outside C001/F003.
const METADATA_ACCESSORS: [&str; 3] = ["dims", "shape", "len"];
/// Functions named after these read ambient state when called through a
/// path (`env::var(..)`, `fs::read_to_string(..)`, ...).
const AMBIENT_READS: [&str; 9] = [
    "var",
    "var_os",
    "vars",
    "args",
    "args_os",
    "current_dir",
    "available_parallelism",
    "read_to_string",
    "read_dir",
];
const PRINT_MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];
const ATOMIC_RMW: [&str; 8] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
];

/// The sink token `i` of `file` is, if any.
pub fn classify(file: &SourceFile, i: usize) -> Option<SinkKind> {
    let toks = &file.tokens;
    let s = toks[i].kind.ident()?;
    let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.kind.is_punct(p));
    let next_open = toks
        .get(i + 1)
        .is_some_and(|n| n.kind == TokenKind::Open('('));
    let prev_is = |p: &str| i > 0 && toks[i - 1].kind.is_punct(p);

    let kind = if HASH_TYPES.contains(&s) {
        SinkKind::HashOrder
    } else if CLOCK_TYPES.contains(&s) {
        SinkKind::Clock
    } else if RAND_IDENTS.contains(&s) || (s == "rand" && next_is("::")) {
        SinkKind::Randomness
    } else if PANIC_MACROS.contains(&s) && next_is("!") {
        SinkKind::PanicMacro
    } else if s == "unwrap" && prev_is(".") && next_open {
        SinkKind::Unwrap
    } else if s == "expect" && prev_is(".") && next_open {
        SinkKind::Expect
    } else if (s == "clone" || s == "to_vec")
        && prev_is(".")
        && next_open
        && i >= 2
        && match &toks[i - 2].kind {
            // A call/index result being copied out wholesale.
            TokenKind::Close(')') | TokenKind::Close(']') => true,
            // A named payload handle.
            TokenKind::Ident(recv) => PAYLOAD_RECEIVERS.contains(&recv.as_str()),
            _ => false,
        }
        && !copies_metadata(toks, i)
        && !file.fn_name_at(i).is_some_and(sanctioned_copy_fn)
    {
        SinkKind::PayloadCopy
    } else if s == "spawn" && next_open && !file.path.ends_with("parexec/src/morsel.rs") {
        SinkKind::Spawn
    } else if AMBIENT_READS.contains(&s) && next_open && prev_is("::") {
        SinkKind::AmbientRead
    } else if PRINT_MACROS.contains(&s) && next_is("!") {
        SinkKind::Print
    } else if ATOMIC_RMW.contains(&s) && next_open && prev_is(".") {
        SinkKind::LedgerBump
    } else {
        return None;
    };
    Some(kind)
}

/// True when the `.clone()`/`.to_vec()` receiver ending at token `i - 2` is
/// a nullary metadata-accessor call (`x.dims().to_vec()`): a shape-vector
/// copy, not a payload copy.
fn copies_metadata(toks: &[Token], i: usize) -> bool {
    i >= 4
        && toks[i - 2].kind == TokenKind::Close(')')
        && toks[i - 3].kind == TokenKind::Open('(')
        && toks[i - 4]
            .kind
            .ident()
            .is_some_and(|a| METADATA_ACCESSORS.contains(&a))
}

/// True when a function named `name` is a sanctioned deep-copy point: the
/// copy-discipline contract routes real copies through `materialize()` /
/// `deep_copy()`, and codec representation changes through `encode*()` /
/// `decode*()`, so copies *inside* those functions are the point — an
/// encode walks the dense payload to build runs, a decode expands runs
/// back into a dense buffer, and both are metered by the codec counter
/// rather than hidden.
fn sanctioned_copy_fn(name: &str) -> bool {
    name.contains("materialize")
        || name.contains("deep_copy")
        || name.contains("encode")
        || name.contains("decode")
}

/// One sink token inside a symbolized function.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Function the sink sits in (id into [`SymbolTable::fns`]).
    pub owner: u32,
    /// What the sink does.
    pub kind: SinkKind,
    /// 1-based line of the sink token.
    pub line: u32,
    /// Short description for reports (`.expect()`, `HashMap (hash order)`,
    /// `var() (ambient read)`, ...).
    pub what: String,
}

impl Sink {
    /// True when a covering `allow` of one of `rules` sanctions the sink
    /// at its source. `file` is the file the sink sits in.
    pub fn allowed(&self, file: &SourceFile, rules: &[&str]) -> bool {
        file.suppressions
            .iter()
            .any(|s| s.covers(self.line) && rules.contains(&s.rule.as_str()))
    }
}

/// Every sink owned by a function of `tab`, in (file, token) order.
pub fn scan(files: &[SourceFile], tab: &SymbolTable) -> Vec<Sink> {
    let mut out = Vec::new();
    for &fx in &tab.files_used {
        let file = &files[fx];
        for (i, t) in file.tokens.iter().enumerate() {
            let Some(owner) = tab.owner[fx][i] else {
                continue;
            };
            let Some(kind) = classify(file, i) else {
                continue;
            };
            let s = t.kind.ident().unwrap_or_default();
            let what = match kind {
                SinkKind::HashOrder => format!("{s} (hash order)"),
                SinkKind::Clock => format!("{s} (clock)"),
                SinkKind::Randomness => format!("{s} (randomness)"),
                SinkKind::PanicMacro | SinkKind::Print => format!("{s}!"),
                SinkKind::Unwrap | SinkKind::Expect => format!(".{s}()"),
                SinkKind::PayloadCopy => format!(".{s}() on a payload"),
                SinkKind::Spawn => "spawn(".to_string(),
                SinkKind::AmbientRead => format!("{s}() (ambient read)"),
                SinkKind::LedgerBump => format!(".{s}() (global ledger)"),
            };
            out.push(Sink {
                owner,
                kind,
                line: t.line,
                what,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn kinds(src: &str) -> Vec<(String, SinkKind)> {
        let f = SourceFile::parse("m.rs", "demo", FileKind::Library, src);
        (0..f.tokens.len())
            .filter_map(|i| Some((f.tokens[i].kind.ident()?.to_string(), classify(&f, i)?)))
            .collect()
    }

    #[test]
    fn each_kind_is_recognized_in_context_only() {
        let got = kinds(
            "fn f() { let m: HashMap<u8, u8>; Instant::now(); rand::random(); panic!(); \
             x.unwrap(); x.expect(\"m\"); chunk.clone(); spawn(|| {}); env::var(\"K\"); \
             println!(); C.fetch_add(1); \
             panic(); unwrap; x.expect; other.clone(); dims().to_vec(); var(\"K\"); rand; }",
        );
        use SinkKind::*;
        let want = [
            ("HashMap", HashOrder),
            ("Instant", Clock),
            ("rand", Randomness),
            ("panic", PanicMacro),
            ("unwrap", Unwrap),
            ("expect", Expect),
            ("clone", PayloadCopy),
            ("spawn", Spawn),
            ("var", AmbientRead),
            ("println", Print),
            ("fetch_add", LedgerBump),
        ];
        let want: Vec<(String, SinkKind)> = want.iter().map(|(s, k)| (s.to_string(), *k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sanctioned_copy_fns_and_spawn_site_are_not_sinks() {
        assert!(kinds("fn decode_rle() { chunk.clone(); }").is_empty());
        assert!(kinds("fn materialize() { buf.to_vec(); }").is_empty());
        let pool = SourceFile::parse(
            "crates/parexec/src/morsel.rs",
            "parexec",
            FileKind::Library,
            "fn run() { s.spawn(|| {}); }",
        );
        assert!((0..pool.tokens.len()).all(|i| classify(&pool, i).is_none()));
    }
}
