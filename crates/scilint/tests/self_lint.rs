//! The gate as a test: the whole workspace — scilint's own sources
//! included — must be clean. This is the same analysis `scripts/ci.sh`
//! runs, so a rule violation anywhere fails `cargo test` too.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/scilint sits two levels below the workspace root")
}

#[test]
fn workspace_including_scilint_itself_is_clean() {
    let report = scilint::analyze_workspace(workspace_root()).expect("workspace readable");
    assert!(
        report.files > 100,
        "walker found too few files — layout changed?"
    );
    assert!(
        report.is_clean(),
        "scilint findings in the workspace:\n{}",
        report.listing()
    );
    // Every suppression in the tree carries a reason by construction
    // (reasonless allows become S001 findings), so cleanliness here also
    // certifies the suppression policy.
    assert!(
        report.is_flow_clean(),
        "sciflow findings in the workspace:\n{}",
        report.flow_listing()
    );
}

#[test]
fn morsel_pool_is_the_only_spawn_site() {
    // Every engine analog schedules its tasks on `parexec::MorselPool`, so
    // no spawn anywhere needs sanctioning: a new one outside `morsel.rs`
    // must be routed through the pool, not allowed.
    let report = scilint::analyze_workspace(workspace_root()).expect("workspace readable");
    for rule in ["F004", "D004"] {
        assert!(
            !report.suppressed.contains_key(rule),
            "{rule} allows in the workspace: {:?}",
            report.suppressed
        );
    }
    assert_eq!(
        report.flow_stats.tagged["spawns"], 0,
        "functions that reach a spawn outside the morsel pool"
    );
}

#[test]
fn morsel_pool_spawns_in_one_place() {
    // The pool's claim loop is the workspace's one concurrency primitive,
    // so its module spawns threads in exactly one place.
    let path = workspace_root().join("crates/parexec/src/morsel.rs");
    let text = std::fs::read_to_string(&path).expect("morsel.rs readable");
    let body = text.split("#[cfg(test)]").next().unwrap_or_default();
    assert_eq!(
        body.matches(".spawn(").count(),
        1,
        "non-test part of {} must hold exactly one `.spawn(` call",
        path.display()
    );
}

#[test]
fn morsel_pool_reads_no_clock() {
    // The pool's one claim loop keeps no per-morsel timing, so parexec
    // needs no F002 sanction; one there would vouch for a clock read under
    // every pool caller's purity verdict.
    let src = workspace_root().join("crates/parexec/src");
    for entry in std::fs::read_dir(&src).expect("parexec sources readable") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source readable");
        assert!(
            !text.contains("allow(F002"),
            "{} sanctions a nondeterminism source",
            path.display()
        );
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    // The linter gates CI, so its output must be byte-stable: BTree maps
    // throughout, function ids in (path, token) order, findings tie-broken
    // by (path, line, rule). Two independent runs over the workspace must
    // serialize identically in both schemas, and agree on every purity
    // verdict, witness and sink location.
    let root = workspace_root();
    let first = scilint::analyze_workspace(root).expect("workspace readable");
    let second = scilint::analyze_workspace(root).expect("workspace readable");
    assert_eq!(first.to_json(), second.to_json(), "scilint/v1 drifted");
    assert_eq!(
        first.to_flow_json(),
        second.to_flow_json(),
        "sciflow/v1 drifted"
    );

    let first = scilint::purity::analyze_workspace(root).expect("workspace readable");
    let second = scilint::purity::analyze_workspace(root).expect("workspace readable");
    assert_eq!(first.verdicts.len(), second.verdicts.len());
    for (a, b) in first.verdicts.iter().zip(&second.verdicts) {
        assert_eq!(a, b, "purity verdict of `{}` drifted", a.name);
    }
}
