//! Canonical content fingerprints for lowered task-graph nodes — the
//! plan half of scimemo's cache key.
//!
//! A result cache keyed by "which node is this" must hash exactly the
//! fields that determine the node's *output* and nothing else:
//!
//! * **Included** — operator kind (the label), compute seconds (the
//!   lowering folds operator parameters and input geometry into it),
//!   every declared byte flow (`s3`, `disk_read`, `disk_write`,
//!   `output`), the barrier flag, and the fingerprints of the node's
//!   inputs (as a sorted multiset: `coadd(a, b)` ≡ `coadd(b, a)` for the
//!   commutative reductions these pipelines lower to; the conservative
//!   direction — treating a genuinely ordered operator's permuted inputs
//!   as equal keys — is excluded by the byte flows differing whenever the
//!   lowering distinguishes the operands).
//! * **Excluded** — placement and resident-memory budget. Both are
//!   execution-resource declarations: the workspace determinism contract
//!   (parexec bit-identity, morsel fixed-order reduction) makes results
//!   independent of where a task runs and how much memory it is granted,
//!   so including them would only split cache entries that provably hold
//!   identical bytes.
//!
//! Every node's fields are serialized in canonical form — a
//! `BTreeMap`-ordered `key=value;` encoding with floats rendered as IEEE
//! bit patterns — and hashed with FNV-1a 64 (the workspace's convention
//! for structural digests). Node ids do not participate: two graphs that
//! relabel ids but keep structure hash identically node-for-node.
//!
//! [`graph_fingerprint`] folds the node fingerprints (in multiset order)
//! into one plan-level digest, used by `scibench lint --memo` and the
//! scimemo/v1 report.

use std::collections::BTreeMap;

use simcluster::TaskGraph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-node fingerprints for `graph`, indexed by task id.
///
/// Inputs are hashed before consumers: task ids are a topological order
/// (`TaskGraph::add` refuses forward dependencies).
pub fn node_fingerprints(graph: &TaskGraph) -> Vec<u64> {
    let mut fps = vec![0u64; graph.len()];
    for (id, t) in graph.tasks().iter().enumerate() {
        let mut fields: BTreeMap<&'static str, String> = BTreeMap::new();
        fields.insert("kind", t.label.to_string());
        fields.insert("compute", format!("{:016x}", t.compute.to_bits()));
        fields.insert("s3", t.s3_bytes.to_string());
        fields.insert("disk_read", t.disk_read_bytes.to_string());
        fields.insert("disk_write", t.disk_write_bytes.to_string());
        fields.insert("out", t.output_bytes.to_string());
        fields.insert("barrier", u8::from(t.is_barrier).to_string());
        let mut inputs: Vec<u64> = t.deps.iter().map(|&d| fps[d]).collect();
        inputs.sort_unstable();
        fields.insert(
            "inputs",
            inputs
                .iter()
                .map(|f| format!("{f:016x}"))
                .collect::<Vec<_>>()
                .join(","),
        );

        let mut h = FNV_OFFSET;
        for (k, v) in &fields {
            h = fnv1a(k.as_bytes(), h);
            h = fnv1a(b"=", h);
            h = fnv1a(v.as_bytes(), h);
            h = fnv1a(b";", h);
        }
        fps[id] = h;
    }
    fps
}

/// One plan-level digest: the node fingerprints folded in sorted
/// (multiset) order, so the digest is a function of the plan's content,
/// not its construction order.
pub fn graph_fingerprint(graph: &TaskGraph) -> u64 {
    let mut fps = node_fingerprints(graph);
    fps.sort_unstable();
    let mut h = FNV_OFFSET;
    for f in fps {
        h = fnv1a(&f.to_be_bytes(), h);
    }
    h
}

/// Fold two fingerprints into one composite cache key, order-sensitively.
///
/// The resident query service keys its result cache by
/// `combine_fingerprints(plan, input)`: the canonical plan digest of the
/// stage that produced a result, folded with the content fingerprint of
/// the dataset it consumed. Unlike the input multiset inside
/// [`node_fingerprints`], this fold is deliberately *ordered* — the plan
/// and input halves play different roles, so `(a, b)` and `(b, a)` must
/// not collide by construction.
pub fn combine_fingerprints(plan: u64, input: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(b"plan=", h);
    h = fnv1a(&plan.to_be_bytes(), h);
    h = fnv1a(b";input=", h);
    h = fnv1a(&input.to_be_bytes(), h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{TaskGraph, TaskSpec};

    fn demo() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add(
            TaskSpec::compute("scan", 1.5)
                .s3(1_000)
                .mem(4_000)
                .output(1_000),
        );
        let b = g.add(
            TaskSpec::compute("scan", 1.5)
                .s3(2_000)
                .mem(4_000)
                .output(2_000),
        );
        let c = g.add(
            TaskSpec::compute("coadd", 3.0)
                .after(&[a, b])
                .mem(8_000)
                .output(500),
        );
        g.barrier("sync", &[c]);
        g
    }

    #[test]
    fn run_twice_is_byte_identical() {
        assert_eq!(node_fingerprints(&demo()), node_fingerprints(&demo()));
        assert_eq!(graph_fingerprint(&demo()), graph_fingerprint(&demo()));
    }

    #[test]
    fn perturbation_sweep_relevant_fields_change_the_key() {
        // Every semantically relevant field must perturb the fingerprint.
        let base = node_fingerprints(&demo())[0];
        let perturbed: Vec<(&str, TaskSpec)> = vec![
            (
                "kind",
                TaskSpec::compute("scan2", 1.5)
                    .s3(1_000)
                    .mem(4_000)
                    .output(1_000),
            ),
            (
                "compute",
                TaskSpec::compute("scan", 1.6)
                    .s3(1_000)
                    .mem(4_000)
                    .output(1_000),
            ),
            (
                "s3",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_001)
                    .mem(4_000)
                    .output(1_000),
            ),
            (
                "disk_read",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_000)
                    .disk_read(7)
                    .mem(4_000)
                    .output(1_000),
            ),
            (
                "disk_write",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_000)
                    .disk_write(7)
                    .mem(4_000)
                    .output(1_000),
            ),
            (
                "out",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_000)
                    .mem(4_000)
                    .output(999),
            ),
        ];
        for (what, t) in perturbed {
            let mut g = TaskGraph::new();
            g.add(t);
            assert_ne!(
                node_fingerprints(&g)[0],
                base,
                "changing `{what}` must change the fingerprint"
            );
        }
    }

    #[test]
    fn perturbation_sweep_irrelevant_fields_do_not_change_the_key() {
        // Placement and memory budget are resource declarations; the
        // determinism contract makes results independent of both.
        let base = node_fingerprints(&demo())[0];
        let same: Vec<(&str, TaskSpec)> = vec![
            (
                "placement",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_000)
                    .mem(4_000)
                    .output(1_000)
                    .on_node(3),
            ),
            (
                "mem",
                TaskSpec::compute("scan", 1.5)
                    .s3(1_000)
                    .mem(64_000)
                    .output(1_000),
            ),
        ];
        for (what, t) in same {
            let mut g = TaskGraph::new();
            g.add(t);
            assert_eq!(
                node_fingerprints(&g)[0],
                base,
                "changing `{what}` must NOT change the fingerprint"
            );
        }
    }

    #[test]
    fn input_fingerprints_feed_consumers() {
        // Perturbing an upstream node must ripple into every consumer.
        let g1 = demo();
        let mut g2 = TaskGraph::new();
        let a = g2.add(
            TaskSpec::compute("scan", 1.5)
                .s3(1_111)
                .mem(4_000)
                .output(1_000),
        );
        let b = g2.add(
            TaskSpec::compute("scan", 1.5)
                .s3(2_000)
                .mem(4_000)
                .output(2_000),
        );
        let c = g2.add(
            TaskSpec::compute("coadd", 3.0)
                .after(&[a, b])
                .mem(8_000)
                .output(500),
        );
        g2.barrier("sync", &[c]);
        let f1 = node_fingerprints(&g1);
        let f2 = node_fingerprints(&g2);
        assert_ne!(f1[0], f2[0]);
        assert_eq!(f1[1], f2[1]);
        assert_ne!(f1[2], f2[2], "consumer must see the upstream change");
        assert_ne!(f1[3], f2[3], "barrier inherits through deps too");
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
    }

    #[test]
    fn input_order_is_canonical() {
        // coadd(a, b) and coadd(b, a) are the same cache key.
        let mut g1 = TaskGraph::new();
        let a = g1.add(TaskSpec::compute("scan", 1.0).s3(10).output(10).mem(10));
        let b = g1.add(TaskSpec::compute("scan", 2.0).s3(20).output(20).mem(20));
        let c1 = g1.add(TaskSpec::compute("coadd", 3.0).after(&[a, b]));
        let mut g2 = TaskGraph::new();
        let b2 = g2.add(TaskSpec::compute("scan", 2.0).s3(20).output(20).mem(20));
        let a2 = g2.add(TaskSpec::compute("scan", 1.0).s3(10).output(10).mem(10));
        let c2 = g2.add(TaskSpec::compute("coadd", 3.0).after(&[b2, a2]));
        assert_eq!(node_fingerprints(&g1)[c1], node_fingerprints(&g2)[c2]);
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2));
    }

    #[test]
    fn combine_is_deterministic_ordered_and_collision_shy() {
        assert_eq!(combine_fingerprints(1, 2), combine_fingerprints(1, 2));
        assert_ne!(combine_fingerprints(1, 2), combine_fingerprints(2, 1));
        assert_ne!(combine_fingerprints(1, 2), combine_fingerprints(1, 3));
        assert_ne!(combine_fingerprints(0, 0), 0);
    }

    #[test]
    fn ids_do_not_participate() {
        // The same node content at a different id hashes identically.
        let mut g1 = TaskGraph::new();
        g1.add(TaskSpec::compute("pad", 0.5));
        let x1 = g1.add(
            TaskSpec::compute("scan", 1.5)
                .s3(1_000)
                .mem(4_000)
                .output(1_000),
        );
        let mut g2 = TaskGraph::new();
        let x2 = g2.add(
            TaskSpec::compute("scan", 1.5)
                .s3(1_000)
                .mem(4_000)
                .output(1_000),
        );
        assert_eq!(node_fingerprints(&g1)[x1], node_fingerprints(&g2)[x2]);
    }
}
