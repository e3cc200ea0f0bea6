//! Static memoization-soundness certifier.
//!
//! A result cache keyed by plan fingerprints is only sound if two
//! conditions hold for every node it serves:
//!
//! 1. **Key completeness** — the fingerprint covers every input that can
//!    change the node's output. [`plancheck::node_fingerprints`] provides
//!    the canonical content hash (operator kind + parameters + input
//!    fingerprints) and its tests prove the inclusion/exclusion policy.
//! 2. **Operator determinism** — the code the node runs computes a pure
//!    function of those fingerprinted inputs. The purity lattice in
//!    [`scilint::purity`] provides per-function verdicts with witness
//!    chains.
//!
//! This crate joins the two: given a lowered [`simcluster::TaskGraph`],
//! the engine's operator-binding tables ([`plancheck::OpBinding`]), and a
//! workspace [`PurityTable`], [`certify`] produces a per-node
//! [`NodeDecision`] saying whether the node may be served from the cache,
//! and if not, why — down to the exact impure sink reachable from its
//! kernels. [`table::MemoTable`] is the runtime half: a fingerprint-keyed
//! cache over zero-copy chunk shares that refuses uncertified keys, one
//! type for the resident service's concurrent requests and the
//! single-threaded sweeps alike.

pub mod report;
pub mod table;

pub use report::{ConfigReport, FixtureReport, Report, StatsBlock};
pub use table::{MemoStats, MemoTable, Probe};

use plancheck::{node_fingerprints, OpBinding, OpClass};
use scilint::purity::PurityTable;
use simcluster::TaskGraph;

/// What a task-graph node does, as far as the cache is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// Versioned input ingest: deterministic given the fingerprinted
    /// input identity, cacheable.
    Source,
    /// Control plane (schedulers, barriers, submit/poll loops): produces
    /// no payload, never cached, transparent to downstream certification.
    Infra,
    /// Pure data movement (distribute/gather/broadcast): no kernel runs,
    /// output is a rearrangement of certified inputs.
    Movement,
    /// Runs one or more named compute kernels.
    Kernel,
    /// No binding table entry: conservatively uncacheable.
    Unbound,
}

impl NodeClass {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            NodeClass::Source => "source",
            NodeClass::Infra => "infra",
            NodeClass::Movement => "movement",
            NodeClass::Kernel => "kernel",
            NodeClass::Unbound => "unbound",
        }
    }
}

/// The cacheability decision for one task-graph node.
#[derive(Debug, Clone)]
pub struct NodeDecision {
    /// Task index within the lowered graph.
    pub task: usize,
    /// The task's label.
    pub label: &'static str,
    /// Canonical content fingerprint ([`plancheck::node_fingerprints`]).
    pub fingerprint: u64,
    /// What the node does.
    pub class: NodeClass,
    /// True when the node and every transitive input computes a
    /// deterministic function of the fingerprinted inputs.
    pub sound: bool,
    /// Sound and payload-bearing: the cache may serve this fingerprint.
    pub certified: bool,
    /// Why the node is not sound (empty when it is). Names the first
    /// offending kernel or input.
    pub reason: String,
    /// Rendered purity witness chain (`fn (path:line)` hops, sink last)
    /// when an impure kernel decides the verdict.
    pub witness: Vec<String>,
}

/// The full certification of one lowered plan.
#[derive(Debug, Clone)]
pub struct Certification {
    /// One decision per task, in task order.
    pub nodes: Vec<NodeDecision>,
    /// Whole-plan fingerprint ([`plancheck::graph_fingerprint`]).
    pub graph_fingerprint: u64,
}

impl Certification {
    /// Number of certified (cache-eligible) nodes.
    pub fn certified_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.certified).count()
    }

    /// Decisions for nodes that are payload-bearing but not certified,
    /// i.e. actual cache rejections (infra nodes are not rejections).
    pub fn rejections(&self) -> impl Iterator<Item = &NodeDecision> {
        self.nodes
            .iter()
            .filter(|n| !n.certified && n.class != NodeClass::Infra)
    }
}

/// Render a purity witness chain for the report: each hop as
/// `name (path:line)`, then the sink description.
fn render_witness(v: &scilint::purity::PurityVerdict) -> Vec<String> {
    let mut out: Vec<String> = v
        .witness
        .iter()
        .map(|h| format!("{} ({}:{})", h.name, h.path, h.line))
        .collect();
    if !v.sink.is_empty() {
        out.push(format!("{} ({}:{})", v.sink, v.sink_path, v.sink_line));
    }
    out
}

/// Certify every node of a lowered plan against the operator-binding
/// tables and the workspace purity table.
///
/// A node is **sound** iff its own class permits memoization (sources,
/// movement, and kernels whose every named function has a
/// [`scilint::purity::Purity::memoizable`] worst-case verdict) and every
/// dependency is sound. Infra nodes are sound but never certified: they
/// carry no payload, so they pass soundness through without becoming
/// cache entries themselves. Unknown labels are conservatively unsound.
pub fn certify(graph: &TaskGraph, tables: &[&[OpBinding]], purity: &PurityTable) -> Certification {
    let fps = node_fingerprints(graph);
    let tasks = graph.tasks();
    let mut nodes: Vec<NodeDecision> = Vec::with_capacity(tasks.len());

    for (i, t) in tasks.iter().enumerate() {
        let mut reason = String::new();
        let mut witness = Vec::new();

        let class = if t.is_barrier {
            NodeClass::Infra
        } else {
            match plancheck::memo::lookup(tables, t.label).map(|b| b.class) {
                None => NodeClass::Unbound,
                Some(OpClass::Source) => NodeClass::Source,
                Some(OpClass::Infra) => NodeClass::Infra,
                Some(OpClass::Kernel([])) => NodeClass::Movement,
                Some(OpClass::Kernel(_)) => NodeClass::Kernel,
            }
        };

        let mut sound = match class {
            NodeClass::Unbound => {
                reason = format!("no operator binding for label `{}`", t.label);
                false
            }
            NodeClass::Kernel => {
                let names = match plancheck::memo::lookup(tables, t.label).map(|b| b.class) {
                    Some(OpClass::Kernel(names)) => names,
                    _ => unreachable!("class Kernel implies a Kernel binding"),
                };
                let mut ok = true;
                for name in names {
                    match purity.worst_named(name) {
                        None => {
                            reason =
                                format!("kernel `{name}` has no purity verdict in the workspace");
                            ok = false;
                            break;
                        }
                        Some(v) if !v.level.memoizable() => {
                            reason = format!(
                                "kernel `{name}` is {} via {} ({}:{})",
                                v.level.name(),
                                v.sink,
                                v.sink_path,
                                v.sink_line
                            );
                            witness = render_witness(v);
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                ok
            }
            // Sources, movement, and infra are sound on their own; their
            // certification rides on their inputs below.
            NodeClass::Source | NodeClass::Movement | NodeClass::Infra => true,
        };

        if sound {
            // Deps always point at earlier tasks (TaskGraph::add appends),
            // so decisions for them already exist.
            if let Some(&bad) = t.deps.iter().find(|&&d| !nodes[d].sound) {
                sound = false;
                reason = format!(
                    "input task {bad} (`{}`) is not certified: {}",
                    nodes[bad].label, nodes[bad].reason
                );
            }
        }

        let certified = sound && class != NodeClass::Infra;
        nodes.push(NodeDecision {
            task: i,
            label: t.label,
            fingerprint: fps[i],
            class,
            sound,
            certified,
            reason,
            witness,
        });
    }

    Certification {
        nodes,
        graph_fingerprint: plancheck::graph_fingerprint(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plancheck::OpBinding;
    use simcluster::{TaskGraph, TaskSpec};

    fn purity_of(src: &str) -> PurityTable {
        let f = scilint::source::SourceFile::parse(
            "crates/sciops/src/lib.rs",
            "sciops",
            scilint::source::FileKind::Library,
            src,
        );
        scilint::purity::analyze(&[f])
    }

    const EMPTY: &[&str] = &[];
    const TABLE: &[OpBinding] = &[
        OpBinding::new("ingest", OpClass::Source),
        OpBinding::new("barrier", OpClass::Infra),
        OpBinding::new("shuffle", OpClass::Kernel(EMPTY)),
        OpBinding::new("clean", OpClass::Kernel(&["clean_kernel"])),
        OpBinding::new("dirty", OpClass::Kernel(&["dirty_kernel"])),
    ];

    const SRC: &str = "pub fn clean_kernel(x: f64) -> f64 { x * 2.0 }\n\
                       pub fn dirty_kernel() -> String { std::env::var(\"MODE\").unwrap() }\n";

    fn chain_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("ingest", 1.0).output(10));
        let b = g.add(TaskSpec::compute("clean", 2.0).after(&[a]));
        let c = g.add(TaskSpec::compute("shuffle", 0.0).after(&[b]));
        g.add(TaskSpec::compute("clean", 1.0).after(&[c]));
        g
    }

    #[test]
    fn pure_chain_is_fully_certified() {
        let cert = certify(&chain_graph(), &[TABLE], &purity_of(SRC));
        assert_eq!(cert.certified_count(), 4);
        assert!(cert.nodes.iter().all(|n| n.sound && n.reason.is_empty()));
        assert_eq!(cert.nodes[2].class, NodeClass::Movement);
    }

    #[test]
    fn ambient_read_kernel_is_rejected_with_witness() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("ingest", 1.0));
        g.add(TaskSpec::compute("dirty", 2.0).after(&[a]));
        let cert = certify(&g, &[TABLE], &purity_of(SRC));
        let n = &cert.nodes[1];
        assert!(!n.certified && !n.sound);
        assert!(n.reason.contains("dirty_kernel"), "{}", n.reason);
        assert!(n.reason.contains("ambient_read"), "{}", n.reason);
        assert!(
            n.witness.iter().any(|h| h.contains("dirty_kernel")),
            "{:?}",
            n.witness
        );
    }

    #[test]
    fn unsoundness_poisons_downstream_nodes() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("dirty", 1.0));
        let b = g.add(TaskSpec::compute("clean", 2.0).after(&[a]));
        g.add(TaskSpec::compute("clean", 3.0).after(&[b]));
        let cert = certify(&g, &[TABLE], &purity_of(SRC));
        assert_eq!(cert.certified_count(), 0);
        assert!(cert.nodes[1].reason.contains("input task 0"));
        assert!(cert.nodes[2].reason.contains("input task 1"));
    }

    #[test]
    fn infra_nodes_pass_soundness_through_but_are_never_cached() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("ingest", 1.0));
        let b = g.barrier("barrier", &[a]);
        g.add(TaskSpec::compute("clean", 1.0).after(&[b]));
        let cert = certify(&g, &[TABLE], &purity_of(SRC));
        assert!(cert.nodes[1].sound && !cert.nodes[1].certified);
        assert_eq!(cert.nodes[1].class, NodeClass::Infra);
        assert!(cert.nodes[2].certified);
        assert_eq!(cert.rejections().count(), 0);
    }

    #[test]
    fn unbound_labels_are_conservatively_rejected() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("mystery-op", 1.0));
        let cert = certify(&g, &[TABLE], &purity_of(SRC));
        assert!(!cert.nodes[0].certified);
        assert_eq!(cert.nodes[0].class, NodeClass::Unbound);
        assert!(cert.nodes[0].reason.contains("mystery-op"));
        assert_eq!(cert.rejections().count(), 1);
    }

    #[test]
    fn engine_table_shadows_shared_table() {
        const SHARED: &[OpBinding] = &[OpBinding::new("clean", OpClass::Infra)];
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("clean", 1.0));
        // Engine table first: "clean" resolves to the kernel binding.
        let cert = certify(&g, &[TABLE, SHARED], &purity_of(SRC));
        assert_eq!(cert.nodes[0].class, NodeClass::Kernel);
        // Shared-only: the Infra binding wins.
        let cert = certify(&g, &[SHARED], &purity_of(SRC));
        assert_eq!(cert.nodes[0].class, NodeClass::Infra);
    }

    #[test]
    fn decisions_carry_node_fingerprints() {
        let g = chain_graph();
        let cert = certify(&g, &[TABLE], &purity_of(SRC));
        let fps = node_fingerprints(&g);
        assert_eq!(
            cert.nodes.iter().map(|n| n.fingerprint).collect::<Vec<_>>(),
            fps
        );
        assert_eq!(cert.graph_fingerprint, plancheck::graph_fingerprint(&g));
    }
}
