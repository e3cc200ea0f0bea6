//! Repeat-execution contract of the fingerprint-keyed memo table:
//!
//! * a cache hit is **bit-identical** to recomputing the kernel,
//! * serving the hit moves **zero payload bytes** (the value is a
//!   reference-count bump on the shared chunk, verified by marray's
//!   `CopyCounter` deep-copy ledger),
//! * uncertified keys are never stored and never served.
//!
//! The cached payload is a real pipeline product: the Step-1N mean-b0
//! volume of the neuroimaging use case, computed by the same
//! `segmentation` kernel the operator-binding tables name.

use marray::{CopyCounter, NdArray};
use scimemo::MemoTable;
use sciops::neuro::pipeline::segmentation;
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use std::sync::{Mutex, MutexGuard};

static LEDGER: Mutex<()> = Mutex::new(());

/// Serialize on the process-wide copy ledger: every test here takes it
/// first, so no test's copies land in another's delta.
fn ledger() -> MutexGuard<'static, ()> {
    LEDGER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run Step 1N of the neuro pipeline on a deterministic phantom.
fn step_1n(seed: u64) -> NdArray<f64> {
    let ph = DmriPhantom::generate(seed, &DmriSpec::test_scale());
    let data = ph.data.map(f64::from);
    segmentation(&data, &ph.gtab).0
}

fn bit_identical(a: &NdArray<f64>, b: &NdArray<f64>) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn certified_hit_is_bit_identical_and_zero_copy() {
    let _ledger = ledger();
    let mut table: MemoTable<NdArray<f64>> = MemoTable::new();
    let key = 0x5eed_0001;

    let first = table.get_or_compute(key, true, || step_1n(7));
    assert_eq!(table.stats().misses, 1);

    // The hit: no recompute, no payload movement.
    let before = CopyCounter::snapshot();
    let hit = table.get_or_compute(key, true, || unreachable!("must hit"));
    let moved = CopyCounter::snapshot().since(&before);
    assert_eq!(moved.copies, 0, "cache hit deep-copied: {moved:?}");
    assert_eq!(moved.bytes, 0, "cache hit moved payload bytes: {moved:?}");
    assert!(
        hit.shares_buffer(&first),
        "hit must be a zero-copy share of the stored chunk"
    );

    // Bit-identity against an independent recompute of the kernel.
    let recomputed = step_1n(7);
    assert!(!recomputed.shares_buffer(&hit));
    assert!(
        bit_identical(&hit, &recomputed),
        "cache hit diverged from recompute"
    );
    assert_eq!(table.stats().hits, 1);
}

#[test]
fn uncertified_nodes_are_recomputed_and_never_stored() {
    let _ledger = ledger();
    let mut table: MemoTable<NdArray<f64>> = MemoTable::new();
    let key = 0xbad_0001;

    let a = table.get_or_compute(key, false, || step_1n(9));
    let b = table.get_or_compute(key, false, || step_1n(9));
    assert!(table.is_empty(), "uncertified probe populated the table");
    assert_eq!(table.stats().bypasses, 2);
    // Both runs executed the kernel: same bits, distinct buffers.
    assert!(!a.shares_buffer(&b));
    assert!(bit_identical(&a, &b));
}

#[test]
fn different_fingerprints_do_not_collide() {
    let _ledger = ledger();
    let mut table: MemoTable<NdArray<f64>> = MemoTable::new();
    let a = table.get_or_compute(1, true, || step_1n(7));
    let b = table.get_or_compute(2, true, || step_1n(8));
    assert!(!a.shares_buffer(&b));
    assert!(!bit_identical(&a, &b));
    assert_eq!(table.len(), 2);
}
