//! The zero-copy data plane's acceptance tests: engine analogs that run
//! the same pipeline must agree bit for bit, a full `bench e2e` run must
//! reproduce the committed `BENCH_e2e.json` exactly (output fingerprints,
//! copy counts, bytes and reason tags), sharing must keep at most half the
//! copy-everywhere baseline's copies, every surviving copy must carry a
//! sanctioned reason tag, and a handle clone must not copy.
//!
//! Every test here diffs the process-wide copy ledger, so every test in
//! this binary takes [`ledger`] first, and no test's copies land in
//! another's delta.

use scibench::marray::{CopyCounter, NdArray};
use scibench_bench::e2e;
use std::sync::{Mutex, MutexGuard};

static LEDGER: Mutex<()> = Mutex::new(());

/// Serialize on the process-wide copy ledger.
fn ledger() -> MutexGuard<'static, ()> {
    LEDGER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The committed full-size artifact the e2e gate compares against.
const COMMITTED: &str = include_str!("../BENCH_e2e.json");

/// The rows of a `BENCH_e2e.json` document (results and skips), each
/// without its wall time, the one field that is not deterministic.
fn gated_rows(json: &str) -> Vec<String> {
    json.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"pipeline\""))
        .map(|row| match row.find(", \"ms\": ") {
            Some(start) => {
                let end = start + 2 + row[start + 2..].find(", ").expect("field after ms");
                format!("{}{}", &row[..start], &row[end..])
            }
            None => row.to_string(),
        })
        .collect()
}

#[test]
fn engines_running_the_same_pipeline_agree_bit_for_bit() {
    let _ledger = ledger();
    let (results, skipped) = e2e::run_e2e(true);
    assert_eq!(results.len(), 8, "5 neuro + 3 astro measurements");
    assert_eq!(skipped.len(), 2, "astro dask + tensorflow gaps documented");
    let fingerprint = |pipeline: &str, engine: &str| {
        results
            .iter()
            .find(|r| r.pipeline == pipeline && r.engine == engine)
            .map(|r| r.fingerprint)
            .expect("row present")
    };
    let neuro = fingerprint("neuro", "spark");
    assert_eq!(fingerprint("neuro", "myria"), neuro, "neuro myria vs spark");
    assert_eq!(fingerprint("neuro", "dask"), neuro, "neuro dask vs spark");
    assert_eq!(
        fingerprint("astro", "myria"),
        fingerprint("astro", "spark"),
        "astro myria vs spark"
    );
}

#[test]
fn full_run_matches_the_committed_e2e_artifact() {
    let _ledger = ledger();
    assert!(COMMITTED.contains("\"schema\": \"scibench-bench-e2e/v2\""));
    assert!(COMMITTED.contains("\"quick\": false"));
    let (results, skipped) = e2e::run_e2e(false);
    let fresh = e2e::results_to_json(&results, &skipped, 1, false);
    let (fresh, committed) = (gated_rows(&fresh), gated_rows(COMMITTED));
    assert_eq!(fresh.len(), 10, "8 measured rows + 2 skips");
    assert_eq!(
        fresh, committed,
        "a full e2e run no longer reproduces BENCH_e2e.json; if the change is \
         intended, regenerate it with `scibench bench e2e --out BENCH_e2e.json`"
    );
}

/// The copy-everywhere baseline's deep copies per neuro engine analog, on
/// the full-size run: the last v1 `BENCH_e2e.json`, in which every handle
/// clone was a counted deep copy.
const EAGER_NEURO_COPIES: [(&str, u64); 5] = [
    ("spark", 120),
    ("myria", 74),
    ("dask", 100),
    ("tensorflow", 22),
    ("scidb", 88),
];

#[test]
fn shared_plane_halves_copies_on_at_least_three_engines() {
    let _ledger = ledger();
    // The acceptance bar: copies drop >= 50% from the copy-everywhere
    // baseline on >= 3 of the 5 engine analogs (measured on the
    // neuroscience pipeline, which all five run).
    let (results, _) = e2e::run_e2e(false);
    let copies = |engine: &str| {
        results
            .iter()
            .find(|r| r.pipeline == "neuro" && r.engine == engine)
            .map(|r| r.copies)
            .expect("neuro row")
    };
    let halved: Vec<&str> = EAGER_NEURO_COPIES
        .iter()
        .filter(|(engine, eager)| 2 * copies(engine) <= *eager)
        .map(|(engine, _)| *engine)
        .collect();
    assert!(
        halved.len() >= 3,
        "only {halved:?} dropped >= 50% of the baseline's copies"
    );
    // SciDB is allowed to keep its architectural rewrites (ingest
    // chunking, materialize, rechunk, stream TSV), but sharing must still
    // eliminate the clone-driven ones.
    let (_, scidb_eager) = EAGER_NEURO_COPIES[4];
    assert!(
        copies("scidb") < scidb_eager,
        "scidb: {scidb_eager} -> {}",
        copies("scidb")
    );
}

#[test]
fn remaining_copies_carry_only_sanctioned_reason_tags() {
    let _ledger = ledger();
    // Every surviving copy must be COW, a chunk-codec round trip, or an
    // architectural copy recorded under the engine's own tag: never an
    // untagged copy or another engine's.
    let (results, _) = e2e::run_e2e(true);
    for r in &results {
        for (reason, copies) in &r.reasons {
            let own_tag = reason
                .strip_prefix(r.engine)
                .is_some_and(|rest| rest.starts_with('.'));
            assert!(
                reason == "cow" || reason.starts_with("codec.") || own_tag,
                "{}/{} made {copies} copies tagged {reason:?}",
                r.pipeline,
                r.engine
            );
        }
    }
}

#[test]
fn copy_counter_does_not_see_shared_clones() {
    let _ledger = ledger();
    let a = NdArray::<f64>::from_fn(&[16, 16], |ix| (ix[0] * 16 + ix[1]) as f64);
    let before = CopyCounter::snapshot();
    let b = a.clone();
    assert!(b.shares_buffer(&a), "a clone must alias");
    let delta = CopyCounter::snapshot().since(&before);
    assert_eq!(delta.copies, 0, "refcount bump was counted as a copy");
}
