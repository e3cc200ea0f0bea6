//! The zero-copy data plane's acceptance tests: every engine analog's
//! pipeline must produce bit-identical outputs whether chunk-handle clones
//! deep-copy (the eager, copy-everywhere baseline) or share buffers (the
//! shipped data plane), and sharing must eliminate the non-architectural
//! copies.
//!
//! Every test here diffs the process-wide copy ledger, and
//! `with_copy_mode` serializes only its own sections, not the code
//! around them. So every test in this binary takes [`ledger`] first, and
//! no test's copies land in another's delta.

use scibench::marray::{with_copy_mode, CopyCounter, CopyMode, NdArray};
use scibench_bench::e2e;
use std::sync::{Mutex, MutexGuard};

static LEDGER: Mutex<()> = Mutex::new(());

/// Serialize on the process-wide copy ledger.
fn ledger() -> MutexGuard<'static, ()> {
    LEDGER.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn every_engine_pipeline_is_bit_identical_across_copy_modes() {
    let _ledger = ledger();
    let (results, skipped) = e2e::run_e2e(true);
    assert_eq!(results.len(), 8, "5 neuro + 3 astro measurements");
    assert_eq!(skipped.len(), 2, "astro dask + tensorflow gaps documented");
    for r in &results {
        assert!(
            r.outputs_identical,
            "{}/{} diverged between eager and shared modes",
            r.pipeline, r.engine
        );
        assert!(
            r.copies_after <= r.copies_before,
            "{}/{} made MORE copies on the shared plane ({} -> {})",
            r.pipeline,
            r.engine,
            r.copies_before,
            r.copies_after
        );
    }
}

#[test]
fn shared_plane_halves_copies_on_at_least_three_engines() {
    let _ledger = ledger();
    // The acceptance bar: copies drop >= 50% on >= 3 of the 5 engine
    // analogs (measured on the neuroscience pipeline, which all five run).
    let (results, _) = e2e::run_e2e(true);
    let halved: Vec<&str> = results
        .iter()
        .filter(|r| r.pipeline == "neuro" && r.copy_drop >= 0.5)
        .map(|r| r.engine)
        .collect();
    assert!(
        halved.len() >= 3,
        "only {halved:?} dropped >= 50% of copies"
    );
    // SciDB is allowed to keep its architectural rewrites (ingest
    // chunking, materialize, rechunk, stream TSV), but sharing must still
    // eliminate the clone-driven ones.
    let scidb = results
        .iter()
        .find(|r| r.pipeline == "neuro" && r.engine == "scidb")
        .expect("scidb row");
    assert!(
        scidb.copies_after < scidb.copies_before,
        "scidb: {} -> {}",
        scidb.copies_before,
        scidb.copies_after
    );
}

#[test]
fn remaining_copies_carry_only_sanctioned_reason_tags() {
    let _ledger = ledger();
    // On the shared plane every surviving copy must be COW or an
    // explicitly recorded architectural copy — never the eager-clone tag,
    // which only the baseline mode may produce.
    let (results, _) = e2e::run_e2e(true);
    for r in &results {
        for (reason, copies) in &r.reasons_after {
            assert_ne!(
                reason.as_str(),
                "eager-clone",
                "{}/{} made {copies} eager clones in shared mode",
                r.pipeline,
                r.engine
            );
        }
    }
}

#[test]
fn copy_counter_sees_eager_clones_and_not_shared_ones() {
    let _ledger = ledger();
    let a = NdArray::<f64>::from_fn(&[16, 16], |ix| (ix[0] * 16 + ix[1]) as f64);

    with_copy_mode(CopyMode::Shared, || {
        let before = CopyCounter::snapshot();
        let b = a.clone();
        assert!(b.shares_buffer(&a), "shared-mode clone must alias");
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 0, "refcount bump was counted as a copy");
    });

    with_copy_mode(CopyMode::Eager, || {
        let before = CopyCounter::snapshot();
        let b = a.clone();
        assert!(!b.shares_buffer(&a), "eager-mode clone must deep-copy");
        assert_eq!(b, a, "deep copy must be bit-identical");
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 1);
        assert_eq!(delta.bytes, a.nbytes() as u64);
        assert!(delta.by_reason.contains_key("eager-clone"));
    });
}
