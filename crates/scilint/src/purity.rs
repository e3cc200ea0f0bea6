//! scimemo's source half: a purity lattice over the sciflow call graph.
//!
//! sciserve's result cache is sound only when a pipeline node's output is
//! a pure function of its cache key. The effect lattice ([`crate::flow`])
//! answers "does this function panic / copy / spawn"; this pass answers
//! the memoization question directly: every function is placed on the
//! four-point purity lattice
//!
//! ```text
//! Pure < DetImpure < AmbientRead < Nondet
//! ```
//!
//! * **`Pure`** — output depends only on the arguments; no observable
//!   side effects.
//! * **`DetImpure`** — output still depends only on the arguments, but the
//!   function has benign deterministic side effects (copy-ledger bumps,
//!   diagnostics printing). Memoizing it skips the side effects, never
//!   changes a result — still cacheable.
//! * **`AmbientRead`** — reads process-ambient state that is *not* part of
//!   any cache key: environment variables, config files, thread counts,
//!   the working directory. A cached result could leak one environment's
//!   answer into another — not cacheable.
//! * **`Nondet`** — observes hash order, the clock, or randomness; two
//!   calls with equal arguments may disagree — not cacheable.
//!
//! Seeds come from the [`crate::sinks`] grammar sciflow and the token rules
//! share, and levels propagate callee → caller over the same
//! over-approximate call graph by sciflow's fixed point
//! ([`callgraph::propagate`]): each sink seeds the one-hot bit of its
//! level, and a verdict is the highest bit set, because the lattice join
//! (max) of a set of levels is the top bit of their OR. Every function gets
//! a **shortest witness chain** to a sink of its verdict level via a
//! per-level multi-source BFS ([`callgraph::Bfs`]) over the reverse graph.
//! A nondet sink already sanctioned by a covering
//! `allow(D001/D002/D003/F002, reason)` is trusted not to reach results
//! (the reviewed reason covers the memoization story too) and seeds
//! nothing.
//!
//! Determinism contract: same as sciflow — ids are (path, token)-ordered,
//! BFS visits in id order, so two runs emit byte-identical tables.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::callgraph::{self, Bfs};
use crate::flow::{self, ChainHop};
use crate::profiles;
use crate::sinks::{self, Sink, SinkKind};
use crate::source::SourceFile;
use crate::symbols;
use crate::walk;

/// One point on the purity lattice. Discriminants are ordered so that
/// `max` is the lattice join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Purity {
    /// Output is a function of the arguments; no observable effects.
    Pure = 0,
    /// Deterministic result with benign side effects (ledgers, logging).
    DetImpure = 1,
    /// Reads ambient process state (env, config files, thread counts).
    AmbientRead = 2,
    /// Observes hash order, the clock, or randomness.
    Nondet = 3,
}

/// All levels, in lattice order.
pub const LEVELS: [Purity; 4] = [
    Purity::Pure,
    Purity::DetImpure,
    Purity::AmbientRead,
    Purity::Nondet,
];

impl Purity {
    /// Report name (`pure`, `det_impure`, `ambient_read`, `nondet`).
    pub fn name(self) -> &'static str {
        match self {
            Purity::Pure => "pure",
            Purity::DetImpure => "det_impure",
            Purity::AmbientRead => "ambient_read",
            Purity::Nondet => "nondet",
        }
    }

    /// True when a result produced by a function of this level may be
    /// served from a fingerprint-keyed cache.
    pub fn memoizable(self) -> bool {
        self <= Purity::DetImpure
    }

    /// The level a sink of `kind` seeds, if any.
    fn of(kind: SinkKind) -> Option<Purity> {
        match kind {
            SinkKind::HashOrder | SinkKind::Clock | SinkKind::Randomness => Some(Purity::Nondet),
            SinkKind::AmbientRead => Some(Purity::AmbientRead),
            SinkKind::Print | SinkKind::LedgerBump => Some(Purity::DetImpure),
            SinkKind::PanicMacro
            | SinkKind::Unwrap
            | SinkKind::Expect
            | SinkKind::PayloadCopy
            | SinkKind::Spawn => None,
        }
    }

    /// The one-hot bit this level seeds in a propagation mask.
    fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// The join of every level seeded into `mask`: its highest set bit.
    fn from_mask(mask: u8) -> Purity {
        match mask.checked_ilog2() {
            None | Some(0) => Purity::Pure,
            Some(1) => Purity::DetImpure,
            Some(2) => Purity::AmbientRead,
            Some(_) => Purity::Nondet,
        }
    }
}

/// The purity verdict for one function, with its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurityVerdict {
    /// Function name (unqualified).
    pub name: String,
    /// Owning crate.
    pub crate_name: String,
    /// Workspace-relative path of the definition.
    pub path: String,
    /// Line of the `fn` token.
    pub line: u32,
    /// True for `pub` functions.
    pub is_pub: bool,
    /// The verdict.
    pub level: Purity,
    /// Shortest witness chain, this function first, sink owner last.
    /// Empty for `Pure` functions.
    pub witness: Vec<ChainHop>,
    /// Description of the sink that decides the verdict (`Instant
    /// (clock)`, `env::var (ambient)`, ...). Empty for `Pure`.
    pub sink: String,
    /// Sink location, for the report. Zero line for `Pure`.
    pub sink_path: String,
    /// 1-based sink line, 0 for `Pure`.
    pub sink_line: u32,
}

/// The workspace purity table.
#[derive(Debug, Clone, Default)]
pub struct PurityTable {
    /// One verdict per analyzed function, in symbol-table id order
    /// (sorted by (path, token position)).
    pub verdicts: Vec<PurityVerdict>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl PurityTable {
    /// The worst verdict over every function named `name` — the safe
    /// answer when a kernel binding names a function the token-level
    /// resolver cannot disambiguate. A `crate::name` qualified form
    /// restricts the join to one crate's definitions, so a binding can
    /// pin a common name (`new`, `run`) to the crate that owns it
    /// instead of joining over every same-named fn in the workspace.
    /// Ties break by table order, which is (path, token) order, so the
    /// answer is deterministic.
    pub fn worst_named(&self, name: &str) -> Option<&PurityVerdict> {
        let (krate, bare) = match name.split_once("::") {
            Some((k, b)) => (Some(k), b),
            None => (None, name),
        };
        let ids = self.by_name.get(bare)?;
        ids.iter()
            .map(|&i| &self.verdicts[i])
            .filter(|v| krate.is_none_or(|k| v.crate_name == k))
            .max_by_key(|v| (v.level, std::cmp::Reverse((v.path.clone(), v.line))))
    }

    /// Functions per level, for the summary line of reports.
    pub fn summary(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for l in LEVELS {
            out.insert(l.name(), 0usize);
        }
        for v in &self.verdicts {
            *out.entry(v.level.name()).or_insert(0) += 1;
        }
        out
    }
}

/// Token rules whose covering `allow` sanctions a nondet sink for purity
/// purposes: the reviewed reason ("results stay bit-identical", "order
/// never observed") is exactly a memoization-soundness argument. `F002`
/// is included because sciflow's burn-down anchored its allows at the
/// same sink lines.
const NONDET_SANCTIONS: [&str; 4] = ["D001", "D002", "D003", "F002"];

/// Run the purity analysis over already-parsed files.
pub fn analyze(files: &[SourceFile]) -> PurityTable {
    let tab = symbols::extract(files, &|krate| !profiles::flow_exempt(krate));
    let graph = callgraph::build(&tab);
    let n = tab.fns.len();
    let sinks: Vec<(Purity, Sink)> = sinks::scan(files, &tab)
        .into_iter()
        .filter_map(|s| {
            let level = Purity::of(s.kind)?;
            let file = &files[tab.fns[s.owner as usize].file];
            let sanctioned = level == Purity::Nondet && s.allowed(file, &NONDET_SANCTIONS);
            (!sanctioned).then_some((level, s))
        })
        .collect();

    let mut masks = vec![0u8; n];
    for (level, s) in &sinks {
        masks[s.owner as usize] |= level.bit();
    }
    let rev = graph.reversed();
    callgraph::propagate(&rev, &mut masks);

    // Per-level witness chains: a BFS over the reverse graph from the
    // owners of that level's sinks, in sink (file/token) order. A chain
    // ends at the sink owner that reached it, and names that owner's first
    // sink of the level.
    let bfs: Vec<Bfs> = LEVELS
        .iter()
        .map(|&l| {
            let owners = sinks
                .iter()
                .filter(|(sl, _)| *sl == l)
                .map(|(_, s)| s.owner);
            Bfs::new(&rev, owners)
        })
        .collect();
    let mut first_sink: BTreeMap<(u32, Purity), &Sink> = BTreeMap::new();
    for (level, s) in &sinks {
        first_sink.entry((s.owner, *level)).or_insert(s);
    }

    let mut verdicts = Vec::with_capacity(n);
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (f, sym) in tab.fns.iter().enumerate() {
        let level = Purity::from_mask(masks[f]);
        let (witness, sink) = if level == Purity::Pure {
            (Vec::new(), None)
        } else {
            let path = bfs[level as usize].path(f as u32);
            let sink = path.last().and_then(|&o| first_sink.get(&(o, level)));
            (flow::hops(&tab, path), sink)
        };
        by_name.entry(sym.name.clone()).or_default().push(f);
        verdicts.push(PurityVerdict {
            name: sym.name.clone(),
            crate_name: sym.crate_name.clone(),
            path: sym.path.clone(),
            line: sym.line,
            is_pub: sym.is_pub,
            level,
            witness,
            sink: sink.map_or(String::new(), |s| s.what.clone()),
            sink_path: sink.map_or(String::new(), |s| tab.fns[s.owner as usize].path.clone()),
            sink_line: sink.map_or(0, |s| s.line),
        });
    }
    PurityTable { verdicts, by_name }
}

/// Walk the workspace at `root` and compute the purity table for every
/// member crate (bench excluded, same as sciflow).
pub fn analyze_workspace(root: &Path) -> io::Result<PurityTable> {
    let files = walk::load_workspace(root)?;
    Ok(analyze(&files))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn run(files: &[(&str, &str, &str)]) -> PurityTable {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| SourceFile::parse(path, krate, FileKind::Library, src))
            .collect();
        analyze(&parsed)
    }

    fn level_of(t: &PurityTable, name: &str) -> Purity {
        t.worst_named(name).expect("fn known").level
    }

    #[test]
    fn pure_fn_is_pure() {
        let t = run(&[("lib.rs", "sciops", "pub fn f(x: u32) -> u32 { x + 1 }\n")]);
        assert_eq!(level_of(&t, "f"), Purity::Pure);
        assert!(t.worst_named("f").expect("f").witness.is_empty());
    }

    #[test]
    fn clock_read_is_nondet_with_witness() {
        let t = run(&[(
            "lib.rs",
            "sciops",
            "pub fn k() { helper(); }\nfn helper() { let _ = Instant::now(); }\n",
        )]);
        let v = t.worst_named("k").expect("k");
        assert_eq!(v.level, Purity::Nondet);
        let names: Vec<&str> = v.witness.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["k", "helper"]);
        assert!(v.sink.contains("clock"), "{}", v.sink);
    }

    #[test]
    fn env_read_is_ambient() {
        let t = run(&[(
            "lib.rs",
            "parexec",
            "pub fn auto() { let _ = std::env::var(\"T\"); }\n",
        )]);
        assert_eq!(level_of(&t, "auto"), Purity::AmbientRead);
        assert!(!Purity::AmbientRead.memoizable());
    }

    #[test]
    fn thread_count_read_is_ambient() {
        let t = run(&[(
            "lib.rs",
            "parexec",
            "pub fn detect() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n",
        )]);
        assert_eq!(level_of(&t, "detect"), Purity::AmbientRead);
    }

    #[test]
    fn ledger_bump_is_det_impure_and_memoizable() {
        let t = run(&[(
            "lib.rs",
            "marray",
            "pub fn record(b: u64) { COPIES.fetch_add(b, Ordering::Relaxed); }\n\
             pub fn kernel() { record(1); }\n",
        )]);
        assert_eq!(level_of(&t, "kernel"), Purity::DetImpure);
        assert!(Purity::DetImpure.memoizable());
    }

    #[test]
    fn join_takes_the_worst_callee() {
        let t = run(&[(
            "lib.rs",
            "sciops",
            "pub fn top() { a(); b(); }\n\
             fn a() { println!(\"x\"); }\n\
             fn b() { let _: HashMap<u32, u32> = HashMap::new(); }\n",
        )]);
        assert_eq!(level_of(&t, "a"), Purity::DetImpure);
        assert_eq!(level_of(&t, "b"), Purity::Nondet);
        assert_eq!(level_of(&t, "top"), Purity::Nondet);
    }

    #[test]
    fn witness_tie_goes_to_the_sink_first_in_file_order() {
        // `b()` is called first, but `a`'s print comes first in the file.
        let t = run(&[(
            "lib.rs",
            "sciops",
            "pub fn top() { b(); a(); }\n\
             fn a() { println!(\"a\"); }\n\
             fn b() { println!(\"b\"); }\n",
        )]);
        let v = t.worst_named("top").expect("top");
        let names: Vec<&str> = v.witness.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["top", "a"]);
        assert_eq!(v.sink_line, 2);
    }

    #[test]
    fn witness_leads_to_a_sink_of_the_verdict_level_not_the_nearest() {
        let t = run(&[(
            "lib.rs",
            "sciops",
            "pub fn mixed() { near(); far(); }\n\
             fn near() { println!(\"x\"); }\n\
             fn far() { mid(); }\n\
             fn mid() { let _ = Instant::now(); }\n",
        )]);
        let v = t.worst_named("mixed").expect("mixed");
        assert_eq!(v.level, Purity::Nondet);
        let names: Vec<&str> = v.witness.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["mixed", "far", "mid"]);
        assert_eq!(v.sink, "Instant (clock)");
        assert_eq!((v.sink_path.as_str(), v.sink_line), ("lib.rs", 4));
    }

    #[test]
    fn sanctioned_nondet_sink_seeds_nothing() {
        let t = run(&[(
            "lib.rs",
            "parexec",
            "pub fn stats() {\n\
             // scilint: allow(F002, timing feeds scheduler stats only; results stay bit-identical)\n\
             let _ = Instant::now();\n\
             }\n",
        )]);
        assert_eq!(level_of(&t, "stats"), Purity::Pure);
    }

    #[test]
    fn worst_named_joins_over_same_named_fns() {
        let t = run(&[
            ("a.rs", "sciops", "pub fn go() {}\n"),
            ("b.rs", "core", "pub fn go() { let _ = Instant::now(); }\n"),
        ]);
        assert_eq!(level_of(&t, "go"), Purity::Nondet);
    }

    #[test]
    fn crate_qualified_lookup_narrows_the_join() {
        let t = run(&[
            ("a.rs", "sciops", "pub fn go() {}\n"),
            ("b.rs", "core", "pub fn go() { let _ = Instant::now(); }\n"),
        ]);
        assert_eq!(level_of(&t, "sciops::go"), Purity::Pure);
        assert_eq!(level_of(&t, "core::go"), Purity::Nondet);
        assert!(t.worst_named("formats::go").is_none());
    }

    #[test]
    fn ambient_read_in_a_constructor_does_not_taint_unrelated_news() {
        // Regression for the Server::new gotcha: an ambient read inside
        // one crate's constructor must not leak through `Mutex::new(..)`
        // call sites into every function in the workspace — call
        // resolution is per (crate, file, fn), not bare name.
        let t = run(&[
            (
                "server.rs",
                "serve",
                "impl Server { pub fn new() -> Server { let _ = std::fs::read_to_string(\"w\"); Server } }\n",
            ),
            (
                "kernel.rs",
                "sciops",
                "pub fn kernel() -> u32 { let _m = Mutex::new(7); 7 }\n",
            ),
        ]);
        assert_eq!(level_of(&t, "kernel"), Purity::Pure);
        assert_eq!(level_of(&t, "serve::new"), Purity::AmbientRead);
    }

    #[test]
    fn summary_counts_every_level() {
        let t = run(&[(
            "lib.rs",
            "sciops",
            "pub fn p() {}\nfn d() { println!(\"x\"); }\nfn n() { let _ = Instant::now(); }\n",
        )]);
        let s = t.summary();
        assert_eq!(s["pure"], 1);
        assert_eq!(s["det_impure"], 1);
        assert_eq!(s["nondet"], 1);
        assert_eq!(s["ambient_read"], 0);
    }
}
