//! Static-verification sweep: every shipped lowering in the catalog — the
//! paper's full data-size sweeps at 16 and 64 nodes — must produce a
//! `plancheck`-clean task graph (zero error-severity findings and no
//! repeated dependency), with one documented exception: Myria's pipelined
//! astronomy configuration at 24 visits on 16 nodes (Figure 15) MUST trip
//! the memory-budget pass, and its disk-backed fallbacks must not. This
//! pins the paper's OOM story to the static checker, not just to the
//! simulator.
//!
//! The catalog marks that configuration `memory_expected` only when its
//! lowering runs strict, so a pipelined plan that gained a spill fallback
//! would fail here as an unexpected memory error.

use plancheck::{check, Code};
use scibench_bench::plans::shipped_configs;
use scibench_core::experiments::Setup;

#[test]
fn every_shipped_lowering_is_clean_except_the_figure_15_oom() {
    let setup = Setup::default();
    for c in shipped_configs(&setup) {
        let report = check(&c.graph, &c.cluster, &setup.profiles.invariants(c.engine));
        let name = c.name.as_str();
        // A repeated dependency double-counts transfer bytes; it is a
        // warning, so the error checks below would not see it.
        assert!(!report.has(Code::W004), "{name} repeats a dependency");
        if c.memory_expected {
            // Two ~31 GB coadd stacks land on one node.
            assert!(
                report.has(Code::M001),
                "{name} must statically reproduce the Figure 15 OOM"
            );
            assert!(
                report.errors().all(|d| d.code.is_memory()),
                "{name} may only carry memory errors"
            );
        } else {
            let errors: Vec<String> = report
                .errors()
                .map(|d| format!("{} {}", d.code, d.message))
                .collect();
            assert!(
                errors.is_empty(),
                "{name} should lint clean, got:\n{}",
                errors.join("\n")
            );
        }
    }
}
