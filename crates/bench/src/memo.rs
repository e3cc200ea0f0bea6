//! The `scibench lint --memo` sweep: certify every shipped lowering for
//! result-cache soundness and emit the `scimemo/v2` report.
//!
//! The v2 schema adds a `memo_stats` block: the sweep replays every node
//! fingerprint through a live [`MemoTable`], so the previously write-only
//! hit/miss/bypass/eviction counters are surfaced in the report instead
//! of silently accumulating (see also the serve report, which carries the
//! same block for the resident cache).
//!
//! For each of the shipped configurations ([`crate::plans`]) the sweep
//! joins the engine's operator-binding tables with the workspace purity
//! table and asks [`scimemo::certify`] which nodes the future result
//! cache may serve. The acceptance bar is structural, not vacuous:
//!
//! * every payload-bearing node of every shipped config must certify
//!   (a rejection is a regression — either an undeclared label or an
//!   impure sink newly reachable from a kernel);
//! * every pipeline family must certify at least one *kernel* node set
//!   (so the sweep cannot pass by certifying only ingest);
//! * a deliberately-unsafe fixture — a plan whose operator is bound to
//!   `parexec`'s thread-count probe `auto`, an unsanctioned ambient
//!   read — must be rejected, with the witness chain naming the sink.
//!   It is the plan `sciserve` ships for its bypass path
//!   ([`sciserve::server::fixture_graph`] over its `FIXTURE_OPS`).

use std::io;
use std::path::Path;

use scibench_core::experiments::Setup;
use scimemo::{
    certify, Certification, ConfigReport, FixtureReport, MemoTable, NodeClass, Report, StatsBlock,
};
use sciserve::server::{fixture_graph, FIXTURE_OPS};

use crate::plans::shipped_configs;

/// The sweep result: the report to serialize plus the failures that
/// decide the exit code.
pub struct MemoSweep {
    /// The full `scimemo/v1` report.
    pub report: Report,
    /// Human-readable acceptance failures (empty on a green sweep).
    pub failures: Vec<String>,
}

/// Run the full sweep. `root` is the workspace root (for the purity
/// analysis of the crates the kernels live in).
pub fn run_memo(root: &Path) -> io::Result<MemoSweep> {
    let purity = scilint::purity::analyze_workspace(root)?;
    let setup = Setup::default();
    let mut report = Report::default();
    let mut failures = Vec::new();

    for (level, count) in purity.summary() {
        report.purity.insert(level.to_string(), count);
    }

    for c in shipped_configs(&setup) {
        let tables = setup.profiles.op_bindings(c.engine);
        let cert = certify(&c.graph, &tables, &purity);
        let name: String = c.name.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut seen = std::collections::BTreeSet::new();
        for n in cert.rejections() {
            if seen.insert(n.label) {
                failures.push(format!("{name}: `{}`: {}", n.label, n.reason));
            }
        }
        report.configs.push(ConfigReport {
            name,
            family: c.family.to_string(),
            engine: c.engine.name().to_string(),
            cert,
        });
    }

    // Every family must certify at least one node set, and the compute
    // families must certify at least one *kernel* node — sources alone do
    // not make a compute pipeline cacheable. (Ingest is the exception:
    // its plans are all sources, movement, and control plane by design.)
    for family in ["neuro", "astro", "ingest", "steps"] {
        let certified_of = |class: Option<NodeClass>| {
            report
                .configs
                .iter()
                .filter(|c| c.family == family)
                .flat_map(|c| c.cert.nodes.iter())
                .filter(|n| n.certified && class.is_none_or(|k| n.class == k))
                .count()
        };
        if certified_of(None) == 0 {
            failures.push(format!(
                "family `{family}`: no certified nodes anywhere in the sweep"
            ));
        }
        if family != "ingest" && certified_of(Some(NodeClass::Kernel)) == 0 {
            failures.push(format!(
                "family `{family}`: no certified kernel nodes anywhere in the sweep"
            ));
        }
    }

    // The gate must reject what it is built to reject.
    let fixture = certify(&fixture_graph(), &[FIXTURE_OPS], &purity);
    let rejected: Vec<_> = fixture.rejections().collect();
    if rejected.is_empty() {
        failures.push("fixture `unsafe-ambient`: the ambient-read plan was NOT rejected".into());
    } else {
        let n = rejected[0];
        if !n.reason.contains("ambient_read") {
            failures.push(format!(
                "fixture `unsafe-ambient`: rejected for the wrong reason: {}",
                n.reason
            ));
        }
        if !n.witness.iter().any(|h| h.contains("auto")) {
            failures.push(format!(
                "fixture `unsafe-ambient`: witness chain does not name the sink owner: {:?}",
                n.witness
            ));
        }
    }
    // Replay every node of the sweep — and the fixture's — through a live
    // `MemoTable`, so the report's stats block carries real counter
    // traffic instead of zeroes: sub-plans shared across configs surface
    // as hits, first sights as misses, and every uncertified node as a
    // bypass. The table is unbounded here; eviction behavior is covered
    // by the scimemo unit tests and measured by `scibench bench serve`.
    let table: MemoTable<u64> = MemoTable::new();
    let replay = |cert: &Certification| {
        for n in &cert.nodes {
            let fp = n.fingerprint;
            table.get_or_compute(fp, n.certified, || fp, |_| 8);
        }
    };
    for c in &report.configs {
        replay(&c.cert);
    }
    replay(&fixture);
    report.memo_stats = Some(StatsBlock {
        stats: table.stats(),
        resident_entries: table.len(),
        resident_bytes: table.resident_bytes(),
    });

    report.fixtures.push(FixtureReport {
        name: "unsafe-ambient".to_string(),
        cert: fixture,
    });

    Ok(MemoSweep { report, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/bench sits two levels below the workspace root")
    }

    #[test]
    fn sweep_is_green_and_covers_every_family() {
        let sweep = run_memo(workspace_root()).expect("workspace readable");
        assert_eq!(sweep.failures, Vec::<String>::new());
        assert_eq!(sweep.report.configs.len(), 137);
        // The stats replay surfaced live counters: shared sub-plans hit,
        // first sights miss, uncertified (infra/fixture) nodes bypass.
        let stats = sweep.report.memo_stats.expect("v2 reports carry stats");
        assert!(stats.stats.hits > 0);
        assert!(stats.stats.misses > 0);
        assert!(stats.stats.bypasses > 0);
        assert_eq!(stats.stats.evictions, 0);
        assert_eq!(stats.resident_entries as u64, stats.stats.misses);
        let fams = sweep.report.family_certified();
        for family in ["neuro", "astro", "ingest", "steps"] {
            let (tasks, certified) = fams[family];
            assert!(certified > 0, "family {family} certified nothing");
            assert!(tasks >= certified);
        }
        // The fixture is recorded as rejected in the report itself.
        let fx = &sweep.report.fixtures[0];
        assert_eq!(fx.cert.rejections().count(), 1);
    }

    #[test]
    fn fixture_rejection_carries_the_ambient_witness() {
        let purity = scilint::purity::analyze_workspace(workspace_root()).unwrap();
        let cert = certify(&fixture_graph(), &[FIXTURE_OPS], &purity);
        let rejected: Vec<_> = cert.rejections().collect();
        assert_eq!(rejected.len(), 1);
        assert!(
            rejected[0].reason.contains("ambient_read"),
            "{}",
            rejected[0].reason
        );
        assert!(
            rejected[0].witness.iter().any(|h| h.contains("auto")),
            "{:?}",
            rejected[0].witness
        );
    }

    #[test]
    fn report_json_is_stable_across_runs_in_process() {
        let a = run_memo(workspace_root()).unwrap().report.to_json();
        let b = run_memo(workspace_root()).unwrap().report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"scimemo/v2\""));
        assert!(a.contains("\"memo_stats\""));
    }
}
