//! The paper's headline claims must hold end to end on the paper-scale
//! simulation. The claims and their bounds live in one place,
//! `experiments::shape_checks`, which `reproduce --check` also prints; the
//! tests below select claims from that list by the start of their text and
//! state no bound of their own.

use std::sync::OnceLock;

use scibench::core::experiments::{shape_checks, Setup, ShapeCheck, ARTIFACTS};

/// The claim list, evaluated once per test binary.
fn checks() -> &'static [ShapeCheck] {
    static CHECKS: OnceLock<Vec<ShapeCheck>> = OnceLock::new();
    CHECKS.get_or_init(|| shape_checks(&Setup::default()))
}

/// Fails naming every claim in `claims` that does not hold, with its evidence.
fn assert_all_hold<'a>(claims: impl IntoIterator<Item = &'a ShapeCheck>) {
    let failed: Vec<String> = claims
        .into_iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}\n      {}", c.claim, c.detail))
        .collect();
    assert!(
        failed.is_empty(),
        "{} headline claim(s) fail:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// Asserts the claims whose text starts with one of `prefixes`, each
/// prefix naming exactly one claim.
fn assert_claims(prefixes: &[&str]) {
    assert_all_hold(prefixes.iter().map(|p| {
        let mut hits = checks().iter().filter(|c| c.claim.starts_with(p));
        let claim = hits
            .next()
            .unwrap_or_else(|| panic!("no claim starts {p:?}"));
        assert!(hits.next().is_none(), "more than one claim starts {p:?}");
        claim
    }));
}

#[test]
fn every_headline_claim_holds() {
    assert_all_hold(checks());
}

#[test]
fn headline_fig10c_relationships() {
    assert_claims(&[
        "Dask ~60% slower for a single subject",
        "all three systems comparable at 25 subjects",
    ]);
}

#[test]
fn headline_scaling_is_near_linear() {
    assert_claims(&["near-linear 16→64 speedup"]);
}

#[test]
fn headline_fig11_ingest_relationships() {
    assert_claims(&["ingest at 8 and 25 subjects"]);
}

#[test]
fn headline_fig12d_iteration_penalty() {
    assert_claims(&["coadd:"]);
}

#[test]
fn headline_fig15_memory_management() {
    assert_claims(&["memory at 8 visits", "memory: pipelined"]);
}

#[test]
fn headline_chunk_size_sweep() {
    assert_claims(&["SciDB chunk"]);
}

#[test]
fn headline_fig12_step_relationships() {
    assert_claims(&["filter:", "mean:"]);
}

#[test]
fn astro_e2e_spark_close_to_myria() {
    assert_claims(&["astronomy at 24 visits"]);
}

#[test]
fn spark_partition_default_underutilizes() {
    assert_claims(&["Spark's default partitions"]);
}

/// Every paper artifact builds, and each of its tables has rows. In a
/// debug build this runs `TaskGraph::add`'s checks and `debug_verify` on
/// every lowering the figures use. `scaling` is skipped: it measures this
/// host's kernels, not the simulation.
#[test]
fn every_artifact_builds_non_empty_tables() {
    let setup = Setup::default();
    for (id, build) in ARTIFACTS.iter().filter(|(id, _)| *id != "scaling") {
        let tables = build(&setup);
        assert!(!tables.is_empty(), "{id} builds no table");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id}: table {:?} has no rows", t.title);
        }
    }
}
