//! scilint: a source-level determinism and numeric-safety analyzer for the
//! scibench workspace.
//!
//! The paper's cross-engine comparisons (and parexec's bit-identity
//! contract) require that results never depend on hash seeds, the clock,
//! ambient randomness, or float accumulation order. `plancheck` verifies
//! the simulated task graphs; scilint closes the remaining gap by checking
//! the *Rust sources* for the patterns that silently break determinism.
//!
//! It is deliberately zero-dependency — no `syn`, no regex — built on a
//! small hand-written lexer ([`lex`]), a per-file structural model
//! ([`source`]: test regions, enclosing functions, suppressions), a rule
//! table ([`rules`]), the sink grammar the rules and the interprocedural
//! passes ([`flow`], [`purity`]) share ([`sinks`]), per-crate profiles
//! ([`profiles`]), and a reporter ([`report`]) with JSON output for
//! tooling. See DESIGN.md §3.9 for the rule table and the suppression
//! policy.

pub mod callgraph;
pub mod flow;
pub mod lex;
pub mod profiles;
pub mod purity;
pub mod report;
pub mod rules;
pub mod sinks;
pub mod source;
pub mod symbols;
pub mod walk;

use std::io;
use std::path::Path;

use report::Report;
use rules::Finding;
use source::SourceFile;

/// Analyze a set of already-parsed files (used by tests and fixtures).
pub fn analyze_files(files: &[SourceFile]) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for file in files {
        rules::check_file(file, profiles::rules_for(&file.crate_name), &mut raw);
    }
    // H002 only makes sense when a kernel crate is present in the set.
    let kernels: Vec<&str> = profiles::KERNEL_CRATES
        .iter()
        .copied()
        .filter(|k| files.iter().any(|f| f.crate_name == *k))
        .collect();
    rules::check_par_twins(files, &kernels, &mut raw);
    // The interprocedural pass: F001–F004 findings land at their sink with
    // a witness chain in the message; the structured chains are kept on the
    // report for the `sciflow/v1` view.
    let (flow_findings, flow_stats) = flow::analyze(files);
    raw.extend(flow_findings.iter().map(flow::FlowFinding::to_finding));
    // Findings of rules a crate's profile does not enable are dropped here
    // so check_par_twins stays profile-agnostic. S-rules (suppression
    // grammar) and F-rules (workspace-level reachability, anchored at the
    // sink's crate) bypass per-crate profiles.
    raw.retain(|f| {
        f.rule.starts_with('S')
            || f.rule.starts_with('F')
            || profiles::rules_for(&f.crate_name).contains(&f.rule)
    });
    let mut report = Report::build(files, raw);
    let surviving: Vec<flow::FlowFinding> = flow_findings
        .into_iter()
        .filter(|ff| {
            report
                .findings
                .iter()
                .any(|f| f.rule == ff.rule && f.path == ff.path && f.line == ff.line)
        })
        .collect();
    report.flow_findings = surviving;
    report.flow_stats = flow_stats;
    report
}

/// Walk the workspace at `root` and analyze every member crate.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::load_workspace(root)?;
    Ok(analyze_files(&files))
}
