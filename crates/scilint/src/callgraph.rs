//! The approximate call graph behind sciflow.
//!
//! Resolution is by name plus two hints, and is *deliberately
//! over-approximate*: when the tokens cannot tell which function a call
//! lands on, the graph keeps every candidate edge rather than dropping the
//! call. An edge that does not exist at runtime can only make the effect
//! analysis report *more*, never less — the right polarity for a gate.
//!
//! The resolution ladder for a call to `name`:
//!
//! 1. `self::name` / `crate::name` / `Self::name` → definitions named
//!    `name` in the caller's crate.
//! 2. `qual::name` where `qual` matches a workspace crate's import name
//!    (`engine_rdd`, `scibench_core`, ...) → that crate's definitions.
//! 3. `qual::name` where `qual` is a known-`std` path segment (`std`,
//!    `thread`, `cmp`, ...) → external, no edge (sinks inside such calls
//!    are caught by the token-level seed scan instead).
//! 4. `Type::name` where some workspace file defines or impls `Type` →
//!    definitions named `name` in those files.
//! 5. `Type::name` where `Type` is capitalized but no workspace file
//!    defines or impls it → external, no edge. A capitalized qualifier is
//!    a type path, and every workspace type appears in the type table, so
//!    an unknown one is `std`/third-party (`Mutex::new`, `Vec::from`).
//!    Fanning those out used to taint every same-named workspace fn —
//!    one ambient read inside any constructor named `new` poisoned every
//!    `new` in the workspace through `Mutex::new(..)` call sites.
//! 6. Method calls `recv.name(...)` and plain `name(...)` → same-*file*
//!    definitions when any exist (a local definition always shadows
//!    anything imported, and a same-file method is the overwhelmingly
//!    likely receiver), else same-crate definitions, else every workspace
//!    definition named `name` (covers `use`-imported free functions and
//!    cross-crate methods; receiver types are unknown at token level).
//!
//! A same-file function passed by name as an argument (`.map(name)`) is
//! recorded as a plain call from the enclosing function
//! ([`crate::symbols`]), so rung 6 lands it on the caller's own file.
//!
//! Known blind spots (see DESIGN.md §3.12): trait-object dispatch, and fn
//! pointers stored or passed across files or through paths, produce no
//! call token and therefore no edge; closures are attributed to the
//! defining function.

use std::collections::{BTreeSet, VecDeque};

use crate::symbols::SymbolTable;

/// `std` path segments that mark a qualified call as external.
const EXTERNAL_QUALIFIERS: [&str; 36] = [
    "std",
    "core",
    "alloc",
    "thread",
    "time",
    "fs",
    "io",
    "env",
    "process",
    "mem",
    "cmp",
    "fmt",
    "str",
    "slice",
    "iter",
    "collections",
    "num",
    "sync",
    "ops",
    "array",
    "vec",
    "f32",
    "f64",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i32",
    "i64",
    "char",
    "ptr",
    "convert",
    "atomic",
    "mpsc",
    "hash",
];

/// Map a path qualifier to the workspace crate directory name it imports
/// (`engine_rdd` → `engine-rdd`, `scibench_core` → `core`).
fn crate_for_qualifier(q: &str) -> String {
    match q {
        "scibench_core" => "core".to_string(),
        "scibench_bench" => "bench".to_string(),
        other => other.replace('_', "-"),
    }
}

/// The call graph: `edges[f]` is the set of functions `f` may call.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Adjacency, indexed by [`SymbolTable::fns`] id.
    pub edges: Vec<BTreeSet<u32>>,
    /// Total edge count (for reporting).
    pub edge_count: usize,
}

impl CallGraph {
    /// Reverse adjacency, for backward effect propagation.
    pub fn reversed(&self) -> Vec<BTreeSet<u32>> {
        let mut rev: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); self.edges.len()];
        for (from, outs) in self.edges.iter().enumerate() {
            for &to in outs {
                rev[to as usize].insert(from as u32);
            }
        }
        rev
    }
}

/// Propagate `masks` callee → caller to the least fixed point: every
/// function ends with the OR of its own seed bits and those of every
/// function it can reach. `rev` is [`CallGraph::reversed`]. A worklist over
/// a finite lattice of `u8` masks terminates, and the fixed point does not
/// depend on the order the worklist visits functions in.
pub fn propagate(rev: &[BTreeSet<u32>], masks: &mut [u8]) {
    let mut work: Vec<u32> = (0..masks.len() as u32)
        .filter(|&f| masks[f as usize] != 0)
        .collect();
    while let Some(f) = work.pop() {
        let m = masks[f as usize];
        for &caller in &rev[f as usize] {
            let before = masks[caller as usize];
            if before | m != before {
                masks[caller as usize] = before | m;
                work.push(caller);
            }
        }
    }
}

/// Shortest paths from a set of sources: a multi-source BFS over an
/// adjacency list, forward ([`CallGraph::edges`]) to walk from callers to
/// callees or reversed to walk from callees to callers.
#[derive(Debug)]
pub struct Bfs {
    /// The function each reached function was discovered from; `None` for
    /// the sources and for unreached functions.
    from: Vec<Option<u32>>,
    reached: Vec<bool>,
}

impl Bfs {
    /// Search `adj` from `sources`. Sources are enqueued in the order given
    /// (repeats ignored) and neighbours visited in id order, so of two
    /// equally short paths the one from the earlier source wins, and two
    /// runs find the same paths.
    pub fn new(adj: &[BTreeSet<u32>], sources: impl IntoIterator<Item = u32>) -> Bfs {
        let mut from = vec![None; adj.len()];
        let mut reached = vec![false; adj.len()];
        let mut queue = VecDeque::new();
        for s in sources {
            if !reached[s as usize] {
                reached[s as usize] = true;
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &g in &adj[f as usize] {
                if !reached[g as usize] {
                    reached[g as usize] = true;
                    from[g as usize] = Some(f);
                    queue.push_back(g);
                }
            }
        }
        Bfs { from, reached }
    }

    /// True when some source reaches `f`.
    pub fn reached(&self, f: u32) -> bool {
        self.reached[f as usize]
    }

    /// The shortest path from `f` back to the source that reached it: `f`
    /// first, the source last.
    pub fn path(&self, f: u32) -> Vec<u32> {
        let mut path = Vec::new();
        let mut cur = Some(f);
        while let Some(g) = cur {
            path.push(g);
            cur = self.from[g as usize];
            if path.len() > 64 {
                break; // cycle guard; BFS parents cannot cycle, belt and braces
            }
        }
        path
    }
}

/// Build the call graph over `tab` using the resolution ladder above.
pub fn build(tab: &SymbolTable) -> CallGraph {
    let crate_names: BTreeSet<&str> = tab.fns.iter().map(|f| f.crate_name.as_str()).collect();
    let mut graph = CallGraph {
        edges: vec![BTreeSet::new(); tab.fns.len()],
        ..CallGraph::default()
    };

    for call in &tab.calls {
        let Some(cands) = tab.by_name.get(&call.name) else {
            continue; // external or std — no workspace definition
        };
        let caller_crate = &tab.fns[call.caller as usize].crate_name;
        let targets: Vec<u32> = if let Some(q) = &call.qualifier {
            // The external check runs before the crate match: the workspace
            // `core` crate imports as `scibench_core`, so a bare `core::`
            // path is always `std`-core.
            let as_crate = crate_for_qualifier(q);
            if q == "self" || q == "crate" || q == "Self" {
                same_crate(tab, cands, caller_crate)
            } else if EXTERNAL_QUALIFIERS.contains(&q.as_str()) {
                Vec::new()
            } else if crate_names.contains(as_crate.as_str()) {
                cands
                    .iter()
                    .copied()
                    .filter(|&c| tab.fns[c as usize].crate_name == as_crate)
                    .collect()
            } else if let Some(files) = tab.types.get(q) {
                cands
                    .iter()
                    .copied()
                    .filter(|&c| files.contains(&tab.fns[c as usize].file))
                    .collect()
            } else if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                // Capitalized qualifier naming no workspace type: a std or
                // third-party type path (`Mutex::new`). Every workspace
                // type is in the type table, so no edge — fanning out here
                // would taint every same-named workspace fn.
                Vec::new()
            } else {
                // Unknown lowercase qualifier: a module path the table
                // cannot place. Over-approximate to every candidate.
                cands.clone()
            }
        } else {
            // Method calls and plain calls share the same-file →
            // same-crate → whole-workspace ladder. Rust scoping makes the
            // first rung exact for plain calls (a definition in the
            // calling module shadows any imported name) and the right
            // per-(crate, file) narrowing for methods: when the caller's
            // own file or crate defines `name`, a workspace-wide fan-out
            // would mis-resolve witness chains through unrelated crates.
            let caller_file = tab.fns[call.caller as usize].file;
            let in_file: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|&c| tab.fns[c as usize].file == caller_file)
                .collect();
            if !in_file.is_empty() {
                in_file
            } else {
                let local = same_crate(tab, cands, caller_crate);
                if local.is_empty() {
                    cands.clone()
                } else {
                    local
                }
            }
        };
        for t in targets {
            if graph.edges[call.caller as usize].insert(t) {
                graph.edge_count += 1;
            }
        }
    }
    graph
}

fn same_crate(tab: &SymbolTable, cands: &[u32], krate: &str) -> Vec<u32> {
    cands
        .iter()
        .copied()
        .filter(|&c| tab.fns[c as usize].crate_name == krate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use crate::symbols::extract;

    fn graph_of(files: &[(&str, &str, &str)]) -> (SymbolTable, CallGraph) {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| SourceFile::parse(path, krate, FileKind::Library, src))
            .collect();
        let tab = extract(&parsed, &|_| true);
        let g = build(&tab);
        (tab, g)
    }

    fn fn_ix(tab: &SymbolTable, name: &str) -> u32 {
        tab.by_name.get(name).expect("fn known")[0]
    }

    #[test]
    fn plain_call_prefers_same_crate() {
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { work(); }\nfn work() {}\n"),
            ("b.rs", "cb", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].crate_name, "ca");
    }

    #[test]
    fn plain_call_prefers_same_file_over_same_crate() {
        // `root` and a local `work` share a file; a second `work` lives in
        // another file of the same crate. The local definition shadows it,
        // so the edge must land on the same-file `work` only.
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { work(); }\nfn work() {}\n"),
            ("a2.rs", "ca", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].path, "a.rs");
    }

    #[test]
    fn same_crate_shadowing_of_workspace_unique_name_resolves_locally() {
        // Regression: crate `ca` defines its own `lookup` (in another file)
        // shadowing a name that is otherwise unique to crate `cb`. The call
        // must resolve inside `ca`, not to `cb`'s workspace-unique fn —
        // otherwise a sink inside cb::lookup would be blamed on ca's
        // witness chains.
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { lookup(); }\n"),
            ("a2.rs", "ca", "fn lookup() {}\n"),
            (
                "b.rs",
                "cb",
                "pub fn lookup() { let _ = Instant::now(); }\n",
            ),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].crate_name, "ca");
    }

    #[test]
    fn plain_call_without_local_def_still_fans_out_workspace_wide() {
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { imported(); }\n"),
            ("b.rs", "cb", "pub fn imported() {}\n"),
            ("c.rs", "cc", "pub fn imported() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        assert_eq!(g.edges[root as usize].len(), 2);
    }

    #[test]
    fn method_call_without_local_def_still_fans_out_workspace_wide() {
        // The caller's crate defines no `work`, so the ladder bottoms out
        // at the workspace rung: both candidates stay (receiver types are
        // unknown at token level, and dropping the call would be unsound).
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root(x: T) { x.work(); }\n"),
            ("b.rs", "cb", "fn work() {}\n"),
            ("c.rs", "cc", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        assert_eq!(g.edges[root as usize].len(), 2);
    }

    #[test]
    fn method_call_prefers_same_file_then_same_crate() {
        // Regression for the `new`-taint gotcha: a method call resolves
        // per (crate, file) like a plain call, so a same-named method in
        // an unrelated crate no longer receives an edge.
        let (tab, g) = graph_of(&[
            (
                "a.rs",
                "ca",
                "pub fn root(x: T) { x.work(); }\nfn work() {}\n",
            ),
            ("b.rs", "cb", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].crate_name, "ca");
    }

    #[test]
    fn unknown_capitalized_qualifier_is_external() {
        // `Mutex` impls no workspace type, so `Mutex::new()` is a std
        // constructor: no edge, instead of a workspace-wide fan-out to
        // every fn named `new`.
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { let _ = Mutex::new(0); }\n"),
            ("b.rs", "cb", "impl Server { pub fn new() {} }\n"),
        ]);
        let root = fn_ix(&tab, "root");
        assert!(g.edges[root as usize].is_empty());
    }

    #[test]
    fn unknown_lowercase_qualifier_still_fans_out() {
        // A lowercase qualifier is a module path the type table cannot
        // place; the over-approximation keeps every candidate.
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { pipeline::merge(); }\n"),
            ("b.rs", "cb", "pub fn merge() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        assert_eq!(g.edges[root as usize].len(), 1);
    }

    #[test]
    fn crate_qualifier_narrows() {
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { engine_rdd::work(); }\n"),
            ("b.rs", "engine-rdd", "fn work() {}\n"),
            ("c.rs", "cc", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].crate_name, "engine-rdd");
    }

    #[test]
    fn type_qualifier_narrows_to_impl_files() {
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { Pool::work(); }\n"),
            ("b.rs", "cb", "struct Pool;\nimpl Pool { fn work() {} }\n"),
            ("c.rs", "cc", "fn work() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        let edges = &g.edges[root as usize];
        assert_eq!(edges.len(), 1);
        let target = *edges.iter().next().expect("edge");
        assert_eq!(tab.fns[target as usize].path, "b.rs");
    }

    #[test]
    fn std_qualified_calls_have_no_edge() {
        let (tab, g) = graph_of(&[
            ("a.rs", "ca", "pub fn root() { thread::spawn(|| {}); }\n"),
            ("b.rs", "cb", "fn spawn() {}\n"),
        ]);
        let root = fn_ix(&tab, "root");
        assert!(g.edges[root as usize].is_empty());
    }
}
