//! The gate as a test: the whole workspace — scilint's own sources
//! included — must be clean. This is the same analysis `scripts/ci.sh`
//! runs, so a rule violation anywhere fails `cargo test` too.

use std::path::Path;

#[test]
fn workspace_including_scilint_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/scilint sits two levels below the workspace root");
    let report = scilint::analyze_workspace(root).expect("workspace readable");
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
fn reports_are_deterministic_across_runs() {
    // The linter gates CI, so its output must be byte-stable: BTree maps
    // throughout, function ids in (path, token) order, findings tie-broken
    // by (path, line, rule). Two independent runs over the workspace must
    // serialize identically in both schemas, and agree on every purity
    // verdict, witness and sink location.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/scilint sits two levels below the workspace root");
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
