//! sciflow: interprocedural effect propagation over the approximate call
//! graph, with witness call chains.
//!
//! The token rules (D/N/H/C) see one file at a time; a helper that calls
//! `expect()` two crates away passes them even when every engine result
//! path runs through it. This pass closes that gap: every function is
//! tagged with the effect lattice {`panics`, `nondet`, `copies`, `spawns`}
//! seeded from the [`crate::sinks`] grammar the token rules also classify
//! with, effects flow caller-ward to a fixed point
//! ([`callgraph::propagate`]), and four rules fire on sinks *reachable from
//! an engine/kernel/pipeline entry point*:
//!
//! * **F001** — a panic sink (`panic!`/`unwrap()`/`expect()`/...) on a
//!   result path,
//! * **F002** — a transitive nondeterminism source (hash-order iteration,
//!   clock reads, ambient randomness),
//! * **F003** — a transitive unsanctioned payload copy (interprocedural
//!   C001),
//! * **F004** — a thread spawn outside `parexec/src/morsel.rs`, the
//!   workspace's single sanctioned spawn site.
//!
//! Each finding is anchored at the **sink line** — one justified
//! `// scilint: allow(F00x, reason)` there covers every chain that reaches
//! the sink — and carries the **shortest witness chain** root → … → sink,
//! computed by a deterministic multi-source BFS ([`callgraph::Bfs`]) from
//! the root set. A sink already covered by the corresponding token-rule
//! allow (H001 for panics, D001/D002/D003 for nondet, C001 for copies, D004
//! for spawns) is treated as sanctioned at the source and seeds nothing.
//!
//! Determinism contract: function ids are assigned in sorted (path, token)
//! order, all sets are `BTreeSet`/`BTreeMap`, the BFS visits neighbors in
//! id order, and ties break by (path, line) — two runs over the same tree
//! emit byte-identical reports.

use std::collections::BTreeMap;

use crate::callgraph::{self, Bfs};
use crate::profiles;
use crate::rules::Finding;
use crate::sinks::{self, Sink, SinkKind};
use crate::source::SourceFile;
use crate::symbols::{self, SymbolTable};

/// One effect in the lattice. The discriminant is the bitmask position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// May panic (macro or `unwrap`/`expect`).
    Panics = 0,
    /// May observe hash order, the clock, or ambient randomness.
    Nondet = 1,
    /// May deep-copy a chunk payload outside `materialize()`.
    Copies = 2,
    /// May spawn a thread outside the sanctioned morsel pool.
    Spawns = 3,
}

/// All effects, in report order.
pub const EFFECTS: [Effect; 4] = [
    Effect::Panics,
    Effect::Nondet,
    Effect::Copies,
    Effect::Spawns,
];

impl Effect {
    /// Bitmask bit for this effect.
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// The F-rule that reports this effect.
    pub fn rule(self) -> &'static str {
        match self {
            Effect::Panics => "F001",
            Effect::Nondet => "F002",
            Effect::Copies => "F003",
            Effect::Spawns => "F004",
        }
    }

    /// Lattice element name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Panics => "panics",
            Effect::Nondet => "nondet",
            Effect::Copies => "copies",
            Effect::Spawns => "spawns",
        }
    }

    /// Token rules whose `allow` sanctions a sink of this effect at the
    /// source (the allow's reason covers the interprocedural story too).
    fn sanctioning_rules(self) -> &'static [&'static str] {
        match self {
            Effect::Panics => &["H001"],
            Effect::Nondet => &["D001", "D002", "D003"],
            Effect::Copies => &["C001"],
            Effect::Spawns => &["D004"],
        }
    }

    /// The effect a sink of `kind` seeds, if any.
    fn of(kind: SinkKind) -> Option<Effect> {
        match kind {
            SinkKind::PanicMacro | SinkKind::Unwrap | SinkKind::Expect => Some(Effect::Panics),
            SinkKind::HashOrder | SinkKind::Clock | SinkKind::Randomness => Some(Effect::Nondet),
            SinkKind::PayloadCopy => Some(Effect::Copies),
            SinkKind::Spawn => Some(Effect::Spawns),
            SinkKind::AmbientRead | SinkKind::Print | SinkKind::LedgerBump => None,
        }
    }
}

/// One hop of a witness call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Function name.
    pub name: String,
    /// Workspace-relative path of its definition.
    pub path: String,
    /// Line of the `fn` token.
    pub line: u32,
}

/// The witness chain through the functions `ids`, in the order given.
pub(crate) fn hops(tab: &SymbolTable, ids: impl IntoIterator<Item = u32>) -> Vec<ChainHop> {
    ids.into_iter()
        .map(|f| {
            let sym = &tab.fns[f as usize];
            ChainHop {
                name: sym.name.clone(),
                path: sym.path.clone(),
                line: sym.line,
            }
        })
        .collect()
}

/// One interprocedural finding with its witness chain.
#[derive(Debug, Clone)]
pub struct FlowFinding {
    /// `F001`..`F004`.
    pub rule: &'static str,
    /// The effect that fired.
    pub effect: Effect,
    /// Crate of the *sink*.
    pub crate_name: String,
    /// Path of the sink file (where the allow belongs).
    pub path: String,
    /// Line of the sink token.
    pub line: u32,
    /// Sink description (`.expect()`, `spawn(`, ...).
    pub sink: String,
    /// Shortest witness chain, root first, sink-owning function last.
    pub chain: Vec<ChainHop>,
    /// Rendered message (chain included) for the unified report.
    pub message: String,
}

impl FlowFinding {
    /// Downgrade to a plain [`Finding`] for the unified gate.
    pub fn to_finding(&self) -> Finding {
        Finding {
            rule: self.rule,
            path: self.path.clone(),
            crate_name: self.crate_name.clone(),
            line: self.line,
            message: self.message.clone(),
        }
    }
}

/// Workspace-level statistics for the `sciflow/v1` report.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Functions in the symbol table.
    pub functions: usize,
    /// Call-graph edges.
    pub edges: usize,
    /// Entry points (pub fns of the root crates).
    pub roots: usize,
    /// Functions tagged with each effect after propagation, by name.
    pub tagged: BTreeMap<&'static str, usize>,
}

/// Run the full flow analysis. Returns the findings (unsuppressed — the
/// report layer applies `allow(F00x)` filtering) and the stats.
pub fn analyze(files: &[SourceFile]) -> (Vec<FlowFinding>, FlowStats) {
    let tab = symbols::extract(files, &|krate| !profiles::flow_exempt(krate));
    let graph = callgraph::build(&tab);
    // Sinks already sanctioned by a covering token-rule allow seed nothing.
    let sinks: Vec<(Effect, Sink)> = sinks::scan(files, &tab)
        .into_iter()
        .filter_map(|s| {
            let effect = Effect::of(s.kind)?;
            let file = &files[tab.fns[s.owner as usize].file];
            (!s.allowed(file, effect.sanctioning_rules())).then_some((effect, s))
        })
        .collect();

    let mut masks = vec![0u8; tab.fns.len()];
    for (effect, s) in &sinks {
        masks[s.owner as usize] |= effect.bit();
    }
    callgraph::propagate(&graph.reversed(), &mut masks);

    // Shortest witness chains from the root set; ids are already sorted by
    // (path, token position).
    let roots: Vec<u32> = (0..tab.fns.len() as u32)
        .filter(|&f| {
            let sym = &tab.fns[f as usize];
            sym.is_pub && profiles::flow_root(&sym.crate_name)
        })
        .collect();
    let bfs = Bfs::new(&graph.edges, roots.iter().copied());

    // One finding per reachable sink line, shortest chain attached.
    let mut findings: BTreeMap<(String, u32, &'static str), FlowFinding> = BTreeMap::new();
    for (effect, s) in &sinks {
        if !bfs.reached(s.owner) {
            continue;
        }
        let chain = hops(&tab, bfs.path(s.owner).into_iter().rev());
        let sym = &tab.fns[s.owner as usize];
        let key = (sym.path.clone(), s.line, effect.rule());
        let entry = FlowFinding {
            rule: effect.rule(),
            effect: *effect,
            crate_name: sym.crate_name.clone(),
            path: sym.path.clone(),
            line: s.line,
            sink: s.what.clone(),
            message: render_message(*effect, s, &chain),
            chain,
        };
        // Keep the first (shortest-chain) finding per (path, line, rule);
        // BFS parents make chains minimal already, so first wins is stable.
        findings.entry(key).or_insert(entry);
    }

    let mut tagged = BTreeMap::new();
    for e in EFFECTS {
        tagged.insert(
            e.name(),
            masks.iter().filter(|&&m| m & e.bit() != 0).count(),
        );
    }
    let stats = FlowStats {
        functions: tab.fns.len(),
        edges: graph.edge_count,
        roots: roots.len(),
        tagged,
    };
    (findings.into_values().collect(), stats)
}

fn render_message(effect: Effect, s: &Sink, chain: &[ChainHop]) -> String {
    let what = match effect {
        Effect::Panics => "panic sink",
        Effect::Nondet => "nondeterminism source",
        Effect::Copies => "unsanctioned payload copy",
        Effect::Spawns => "thread spawn outside morsel.rs",
    };
    let names: Vec<&str> = chain.iter().map(|h| h.name.as_str()).collect();
    let shown = if names.len() > 10 {
        format!(
            "{} -> ... -> {} ({} hops)",
            names[..4].join(" -> "),
            names[names.len() - 4..].join(" -> "),
            names.len()
        )
    } else {
        names.join(" -> ")
    };
    format!(
        "{what} `{}` reachable from entry point `{}`; witness: {shown}",
        s.what,
        chain.first().map_or("?", |h| h.name.as_str()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn run(files: &[(&str, &str, &str)]) -> (Vec<FlowFinding>, FlowStats) {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| SourceFile::parse(path, krate, FileKind::Library, src))
            .collect();
        analyze(&parsed)
    }

    #[test]
    fn panic_reachable_from_engine_root_fires_f001() {
        let (findings, _) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn entry() { helper(); }\nfn helper() { None::<u32>.expect(\"boom\"); }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "F001");
        assert_eq!(findings[0].line, 2);
        let names: Vec<&str> = findings[0].chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["entry", "helper"]);
    }

    #[test]
    fn panic_in_a_fn_passed_by_name_fires_f001() {
        // `b` is never called as `b(..)`: it reaches the sink only as the
        // argument of `map`, and the witness still runs `a → b`.
        let (findings, _) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn a(v: Option<u32>) -> Option<u32> { v.map(b) }\n\
             fn b(x: u32) -> u32 { None::<u32>.expect(\"boom\") + x }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "F001");
        let names: Vec<&str> = findings[0].chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn witness_starts_at_the_first_root_in_id_order() {
        // Both roots reach `h` in one hop; the tie goes to the root that
        // comes first in (path, token) order, not in name order.
        let (findings, _) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn b() { h(); }\npub fn a() { h(); }\nfn h() { panic!(\"x\"); }\n",
        )]);
        assert_eq!(findings.len(), 1);
        let names: Vec<&str> = findings[0].chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["b", "h"]);
    }

    #[test]
    fn unreachable_sink_is_silent() {
        let (findings, stats) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn entry() {}\nfn orphan() { None::<u32>.expect(\"boom\"); }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.tagged["panics"], 1); // tagged but unreachable
    }

    #[test]
    fn non_root_crate_pub_fn_is_not_a_root() {
        let (findings, stats) = run(&[(
            "lib.rs",
            "plancheck",
            "pub fn entry() { helper(); }\nfn helper() { None::<u32>.expect(\"boom\"); }\n",
        )]);
        assert!(findings.is_empty());
        assert_eq!(stats.roots, 0);
    }

    #[test]
    fn token_rule_allow_sanctions_the_sink_at_source() {
        let (findings, stats) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn entry() { helper(); }\n\
             fn helper() {\n\
                 // scilint: allow(H001, boundary: poisoned-lock recovery is a programming error)\n\
                 None::<u32>.unwrap();\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.tagged["panics"], 0);
    }

    #[test]
    fn effects_reach_fixed_point_across_three_hops() {
        let (_, stats) = run(&[(
            "lib.rs",
            "engine-rdd",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() { panic!(\"x\"); }\n",
        )]);
        assert_eq!(stats.tagged["panics"], 3);
    }

    #[test]
    fn morsel_rs_spawns_are_sanctioned() {
        let (findings, _) = run(&[
            (
                "crates/parexec/src/morsel.rs",
                "parexec",
                "pub fn run_pool() { scope(|s| { s.spawn(|| {}); }); }\n",
            ),
            (
                "lib.rs",
                "sciops",
                "pub fn kernel_par() { parexec::run_pool(); }\n",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
