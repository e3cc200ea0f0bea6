//! # plancheck — static verification of lowered task graphs
//!
//! Every engine in this workspace lowers its query plans to a
//! [`simcluster::TaskGraph`] before simulation. The simulator executes
//! whatever it is given; if a lowering mis-declares bytes, memory,
//! placement or barriers, the simulation silently produces plausible-but-
//! wrong numbers. This crate catches those mistakes *before* any
//! simulated second elapses, the way a query optimizer validates a
//! physical plan.
//!
//! [`check`] runs five passes over a graph against a
//! [`simcluster::ClusterSpec`] and an engine [`InvariantProfile`]:
//!
//! 1. **Structure** (`W…`) — duplicate dependencies. The graph builder
//!    refuses the rest of what can be malformed (forward and self
//!    dependencies, data-carrying barriers, outputs larger than declared
//!    memory; see [`simcluster::TaskGraph::add`]), so every graph checked
//!    here is a DAG.
//! 2. **Byte conservation** (`B…`) — every disk read has an upstream
//!    writer (unless the engine is store-backed), outputs are explainable
//!    by visible inputs within the engine's format-conversion factor.
//! 3. **Memory budget** (`M…`) — per-node peak demand along realizable
//!    antichains vs. node RAM; distinguishes hard OOM (pipelined engines,
//!    the paper's Figure 15 Myria failure) from spill/thrash pressure
//!    (Spark) and carries the "needs k× memory" advisory (the paper's
//!    §5.3.2 Spark observation).
//! 4. **Placement** (`P…`) — pins in range, fully-static engines pin
//!    everything, per-label hash-placement consistency, per-node input
//!    skew beyond the engine's tolerated ratio (the paper's §5.3.3 6×
//!    hot-patch growth).
//! 5. **Engine shape** (`E…`) — stage-discipline engines must not leak
//!    data edges around their barriers; per-item pipelining engines must
//!    not contain global barriers at all.
//!
//! Findings come back as a [`Report`] of structured [`Diagnostic`]s with
//! stable [`Code`]s, so tests can assert on exactly which invariant broke
//! and the `scibench lint` CLI can sweep every shipped lowering.
//!
//! ```
//! use plancheck::{check, Code, InvariantProfile};
//! use simcluster::{ClusterSpec, TaskGraph, TaskSpec};
//!
//! let mut g = TaskGraph::new();
//! let a = g.add(TaskSpec::compute("scan", 1.0).s3(1_000_000).output(1_000_000));
//! g.add(TaskSpec::compute("reduce", 1.0).after(&[a]));
//! let report = check(&g, &ClusterSpec::r3_2xlarge(4), &InvariantProfile::new("Demo"));
//! assert!(!report.has_errors());
//!
//! let mut dup = TaskGraph::new();
//! let a = dup.add(TaskSpec::compute("a", 1.0));
//! dup.add(TaskSpec::compute("b", 1.0).after(&[a, a]));
//! let report = check(&dup, &ClusterSpec::r3_2xlarge(4), &InvariantProfile::new("Demo"));
//! assert!(report.has(Code::W004));
//! ```

mod analysis;
mod diag;
pub mod fingerprint;
pub mod memo;
mod passes;
mod profile;

pub use diag::{Code, Diagnostic, Report, Severity};
pub use fingerprint::{combine_fingerprints, graph_fingerprint, node_fingerprints};
pub use memo::{OpBinding, OpClass};
pub use profile::{BarrierDiscipline, InvariantProfile};

use analysis::Analysis;
use simcluster::{ClusterSpec, TaskGraph};

/// Statically verify a lowered task graph against a cluster and an
/// engine's invariant profile. Never panics.
pub fn check(graph: &TaskGraph, cluster: &ClusterSpec, profile: &InvariantProfile) -> Report {
    let an = Analysis::new(graph);
    let mut em = passes::Emitter::new();
    passes::structural(&an, &mut em);
    passes::bytes(&an, profile, &mut em);
    passes::memory(&an, cluster, profile, &mut em);
    passes::placement(&an, cluster, profile, &mut em);
    passes::engine_shape(&an, profile, &mut em);
    Report {
        engine: profile.engine,
        diagnostics: em.finish(),
    }
}

/// The memory pass's estimated peak per-node demand for `graph` on
/// `cluster`: the heaviest realizable concurrent working set (greedy
/// heavy-first antichain, capped at a node's worker slots) over pinned
/// and floating tasks. This is the static estimate the M-passes compare
/// against node RAM; `scibench bench ooc` validates it against the
/// memory governor's measured peak residency.
pub fn estimated_peak_demand(graph: &TaskGraph, cluster: &ClusterSpec) -> u64 {
    passes::peak_demand(&Analysis::new(graph), cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{ClusterSpec, TaskGraph, TaskSpec};

    const GB: u64 = 1_000_000_000;

    fn cluster() -> ClusterSpec {
        ClusterSpec::r3_2xlarge(16) // 8 slots, 61 GB per node
    }

    fn permissive() -> InvariantProfile {
        InvariantProfile::new("Test")
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    // --- pass 1: structure -------------------------------------------------

    #[test]
    fn duplicate_dependency_warns_w004() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        g.add(TaskSpec::compute("b", 1.0).after(&[a, a]));
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::W004), "{}", r.render_table());
        assert!(
            !r.has_errors(),
            "duplicate deps are a warning, not an error"
        );
    }

    // --- pass 2: bytes -----------------------------------------------------

    #[test]
    fn phantom_disk_read_fires_b002_unless_store_backed() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("read", 1.0).disk_read(GB));
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::B002), "{}", r.render_table());
        assert!(r.has_errors());

        let stores = InvariantProfile {
            store_backed: true,
            ..permissive()
        };
        let r = check(&g, &cluster(), &stores);
        assert!(
            !r.has(Code::B002),
            "store-backed engines read external state:\n{}",
            r.render_table()
        );
    }

    #[test]
    fn ancestral_and_own_disk_writes_cover_reads() {
        let mut g = TaskGraph::new();
        let w = g.add(TaskSpec::compute("write", 1.0).disk_write(GB));
        let mid = g.add(TaskSpec::compute("mid", 1.0).after(&[w]));
        // Reads the ancestor's write plus its own spill round-trip.
        g.add(
            TaskSpec::compute("read", 1.0)
                .disk_write(GB / 2)
                .disk_read(GB + GB / 2)
                .after(&[mid]),
        );
        let r = check(&g, &cluster(), &permissive());
        assert!(!r.has(Code::B002), "{}", r.render_table());
    }

    #[test]
    fn unexplained_amplification_fires_b003_unless_sliced() {
        let mut g = TaskGraph::new();
        let src = g.add(TaskSpec::compute("src", 1.0).s3(GB).output(GB));
        // 10x from 1 GB of input, factor is 4.
        g.add(
            TaskSpec::compute("amplify", 1.0)
                .output(10 * GB)
                .after(&[src]),
        );
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::B003), "{}", r.render_table());

        let sliced = InvariantProfile {
            transfer_slices: true,
            ..permissive()
        };
        let r = check(&g, &cluster(), &sliced);
        assert!(!r.has(Code::B003), "{}", r.render_table());
    }

    #[test]
    fn data_through_a_barrier_is_visible_to_b003() {
        let mut g = TaskGraph::new();
        let src = g.add(TaskSpec::compute("src", 1.0).s3(8 * GB).output(8 * GB));
        let bar = g.barrier("stage", &[src]);
        // Consumer sees the producer's bytes through the barrier.
        g.add(
            TaskSpec::compute("consume", 1.0)
                .output(8 * GB)
                .after(&[bar]),
        );
        let r = check(&g, &cluster(), &permissive());
        assert!(!r.has(Code::B003), "{}", r.render_table());
    }

    // --- pass 3: memory ----------------------------------------------------

    #[test]
    fn concurrent_pinned_overrun_fires_m001_only_as_error_when_strict() {
        // Two incomparable 40 GB tasks pinned to node 0: 80 GB > 61 GB.
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("coadd", 10.0).mem(40 * GB).on_node(0));
        g.add(TaskSpec::compute("coadd", 10.0).mem(40 * GB).on_node(0));
        let r = check(&g, &cluster(), &permissive());
        let m001 = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::M001)
            .expect("M001 fires");
        assert_eq!(m001.severity, Severity::Error, "{}", r.render_table());

        let spilling = InvariantProfile {
            spills: true,
            ..permissive()
        };
        let r = check(&g, &cluster(), &spilling);
        let m001 = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::M001)
            .expect("M001 still fires");
        assert_eq!(
            m001.severity,
            Severity::Info,
            "spilling engines degrade, not fail"
        );
        assert!(!r.has_errors());
    }

    #[test]
    fn serialized_chain_does_not_fire_m001() {
        // Same 80 GB, but ordered: never concurrently resident.
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 10.0).mem(40 * GB).on_node(0));
        g.add(
            TaskSpec::compute("b", 10.0)
                .mem(40 * GB)
                .on_node(0)
                .after(&[a]),
        );
        let r = check(&g, &cluster(), &permissive());
        assert!(!r.has(Code::M001), "{}", r.render_table());
    }

    #[test]
    fn floating_pressure_fires_m002() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add(TaskSpec::compute("big", 10.0).mem(10 * GB));
        }
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::M002), "{}", r.render_table());
        assert!(
            !r.has_errors(),
            "floating overrun is scheduler-dependent: warning only"
        );
    }

    #[test]
    fn single_oversized_task_fires_m003() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("huge", 10.0).mem(70 * GB));
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::M003), "{}", r.render_table());
        assert!(r.has_errors());
    }

    #[test]
    fn estimated_peak_demand_is_the_realizable_antichain() {
        // Ordered 40 GB tasks are never concurrently resident: the
        // estimate is one of them, not their sum.
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 10.0).mem(40 * GB).on_node(0));
        g.add(
            TaskSpec::compute("b", 10.0)
                .mem(40 * GB)
                .on_node(0)
                .after(&[a]),
        );
        assert_eq!(estimated_peak_demand(&g, &cluster()), 40 * GB);

        // Incomparable tasks add up, pinned and floating joined by max.
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("p", 10.0).mem(40 * GB).on_node(0));
        g.add(TaskSpec::compute("q", 10.0).mem(40 * GB).on_node(0));
        g.add(TaskSpec::compute("f", 10.0).mem(10 * GB));
        assert_eq!(estimated_peak_demand(&g, &cluster()), 80 * GB);
    }

    #[test]
    fn inflated_footprint_fires_m004_advisory() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("fits-raw", 10.0).mem(40 * GB));
        let doubled = InvariantProfile {
            mem_requirement_factor: 2.0,
            ..permissive()
        };
        let r = check(&g, &cluster(), &doubled);
        let m004 = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::M004)
            .expect("M004 fires");
        assert_eq!(m004.severity, Severity::Info);
        assert!(!r.has_errors());
    }

    // --- pass 4: placement -------------------------------------------------

    #[test]
    fn out_of_range_pin_fires_p001() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("x", 1.0).on_node(99));
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::P001), "{}", r.render_table());
        assert!(r.has_errors());
    }

    #[test]
    fn unpinned_task_on_static_engine_fires_p002() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("x", 1.0));
        g.barrier("sync", &[a]); // barriers are exempt
        let s = InvariantProfile {
            static_placement: true,
            ..permissive()
        };
        let r = check(&g, &cluster(), &s);
        let p002: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::P002)
            .collect();
        assert_eq!(p002.len(), 1, "{}", r.render_table());
        assert!(r.has_errors());
    }

    #[test]
    fn mixed_placement_for_one_label_warns_p003() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("shuffle", 1.0).on_node(0));
        g.add(TaskSpec::compute("shuffle", 1.0));
        let r = check(&g, &cluster(), &permissive());
        assert!(r.has(Code::P003), "{}", r.render_table());
        assert!(!r.has_errors());
    }

    #[test]
    fn hash_skew_beyond_ratio_fires_p004() {
        let mut g = TaskGraph::new();
        // 16 GB of input, spread evenly: 1 GB share per node.
        let srcs: Vec<_> = (0..16)
            .map(|_| g.add(TaskSpec::compute("src", 1.0).s3(GB).output(GB)))
            .collect();
        // A hash-placed stage that lands half the data on node 0.
        for (i, &s) in srcs.iter().enumerate() {
            let node = if i < 8 { 0 } else { i };
            g.add(TaskSpec::compute("shuffle", 1.0).on_node(node).after(&[s]));
        }
        let skewed = InvariantProfile {
            skew_ratio: 6.0,
            ..permissive()
        };
        let r = check(&g, &cluster(), &skewed);
        assert!(
            r.has(Code::P004),
            "node 0 receives 8x its share:\n{}",
            r.render_table()
        );
        assert!(!r.has_errors());

        let r = check(&g, &cluster(), &permissive());
        assert!(!r.has(Code::P004), "skew_ratio 0 disables the check");
    }

    // --- pass 5: engine shape ----------------------------------------------

    #[test]
    fn stage_barrier_bypass_fires_e001() {
        let mut g = TaskGraph::new();
        let producer = g.add(TaskSpec::compute("map", 1.0).s3(GB).output(GB));
        g.barrier("stage", &[producer]);
        // Consumer takes the producer's data but does NOT descend from the
        // barrier: a true stage bypass.
        g.add(TaskSpec::compute("rogue", 1.0).after(&[producer]));
        let staged = InvariantProfile {
            barriers: BarrierDiscipline::Staged,
            ..permissive()
        };
        let r = check(&g, &cluster(), &staged);
        assert!(r.has(Code::E001), "{}", r.render_table());
        assert!(!r.has_errors());
    }

    #[test]
    fn cache_lineage_reread_is_not_a_bypass() {
        // Spark's cached-RDD pattern: the consumer re-reads the producer's
        // cached output AND descends from the stage barrier. Legal.
        let mut g = TaskGraph::new();
        let producer = g.add(TaskSpec::compute("ingest", 1.0).s3(GB).output(GB));
        let bar = g.barrier("stage", &[producer]);
        g.add(TaskSpec::compute("denoise", 1.0).after(&[bar, producer]));
        let staged = InvariantProfile {
            barriers: BarrierDiscipline::Staged,
            ..permissive()
        };
        let r = check(&g, &cluster(), &staged);
        assert!(!r.has(Code::E001), "{}", r.render_table());
    }

    #[test]
    fn any_barrier_on_pipelining_engine_fires_e002() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        g.barrier("sync", &[a]);
        let forbidden = InvariantProfile {
            barriers: BarrierDiscipline::Forbidden,
            ..permissive()
        };
        let r = check(&g, &cluster(), &forbidden);
        assert!(r.has(Code::E002), "{}", r.render_table());
        assert!(r.has_errors());
    }

    // --- emitter ergonomics ------------------------------------------------

    #[test]
    fn noisy_codes_are_capped_with_an_overflow_note() {
        let mut g = TaskGraph::new();
        for _ in 0..40 {
            g.add(TaskSpec::compute("x", 1.0));
        }
        let s = InvariantProfile {
            static_placement: true,
            ..permissive()
        };
        let r = check(&g, &cluster(), &s);
        let p002 = r
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::P002)
            .count();
        assert!(p002 < 40, "capped: got {p002}");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.message.contains("more P002")),
            "{}",
            r.render_table()
        );
    }

    #[test]
    fn clean_graph_is_clean() {
        let mut g = TaskGraph::new();
        let dl = g.add(
            TaskSpec::compute("download", 5.0)
                .s3(4 * GB)
                .output(4 * GB)
                .mem(8 * GB),
        );
        let f = g.add(
            TaskSpec::compute("filter", 3.0)
                .output(GB)
                .mem(2 * GB)
                .after(&[dl]),
        );
        g.add(TaskSpec::compute("fit", 9.0).mem(2 * GB).after(&[f]));
        let r = check(&g, &cluster(), &permissive());
        assert_eq!(codes(&r), Vec::<Code>::new(), "{}", r.render_table());
    }
}
