//! `stream()` on the deployment's instances: output, errors, panics and
//! the copy ledger match a serial walk at every instance count, and the
//! UDF calls really overlap.

use engine_array::{ArrayDb, ArrayDbError, ScidbArray};
use marray::{CopyCounter, NdArray, ReasonStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Instance counts every test sweeps.
const INSTANCES: [usize; 4] = [1, 2, 4, 8];

/// The copy ledger is process-wide: every test here that streams holds
/// this lock, so no other stream records into a ledger diff.
static LEDGER: Mutex<()> = Mutex::new(());

fn ledger() -> MutexGuard<'static, ()> {
    LEDGER.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 12×6 array in 2×3 chunks: twelve chunks, more than the widest
/// deployment has instances. Values carry fractional parts, so the f32
/// TSV round trip really rounds.
fn stored(db: &ArrayDb) -> ScidbArray {
    let data = NdArray::from_fn(&[12, 6], |ix| {
        ix[0] as f64 * 1.37 + ix[1] as f64 * 0.011 - 3.0
    });
    db.from_array(&data, &[2, 3]).unwrap()
}

/// An 8×4 array in one-row chunks, where every cell of chunk `c` holds
/// `c`, so a UDF can tell which chunk it was handed.
fn numbered(db: &ArrayDb) -> ScidbArray {
    let data = NdArray::from_fn(&[8, 4], |ix| ix[0] as f64);
    db.from_array(&data, &[1, 4]).unwrap()
}

fn udf(chunk: &NdArray<f64>) -> NdArray<f64> {
    chunk.map(|v| v.sin() * 100.0 + v)
}

fn bits(a: &NdArray<f64>) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// The round trip done by hand, one chunk after another on this thread.
fn serial_walk(s: &ScidbArray) -> Vec<u64> {
    use formats::text::{from_tsv, to_tsv};
    let chunks: Vec<_> = s
        .chunks
        .iter()
        .map(|(ix, chunk)| {
            let received = from_tsv(&to_tsv(&chunk.cast())).unwrap();
            let back = from_tsv(&to_tsv(&udf(&received.cast()).cast())).unwrap();
            (ix.clone(), back.cast())
        })
        .collect();
    bits(&s.grid.assemble(&chunks).unwrap())
}

#[test]
fn output_is_bit_identical_to_a_serial_walk() {
    let _ledger = ledger();
    let expect = serial_walk(&stored(&ArrayDb::connect(1)));
    for instances in INSTANCES {
        let s = stored(&ArrayDb::connect(instances));
        let out = s.stream(udf).unwrap();
        assert_eq!(out.grid, s.grid, "instances={instances}");
        assert_eq!(
            bits(&out.materialize().unwrap()),
            expect,
            "instances={instances}"
        );
    }
}

#[test]
fn first_bad_chunk_in_grid_order_is_the_error() {
    // Chunks 3 and 6 come back with the wrong shape; chunk 3's error is
    // returned wherever the schedule ran chunk 6 first, and the TSV bytes
    // of the chunks before it are recorded as a serial walk would.
    let _ledger = ledger();
    let mut recorded = Vec::new();
    for instances in INSTANCES {
        let s = numbered(&ArrayDb::connect(instances));
        let before = CopyCounter::snapshot();
        let err = s
            .stream(|chunk| {
                let c = chunk.data()[0] as usize;
                if c == 3 || c == 6 {
                    NdArray::zeros(&[c])
                } else {
                    chunk.clone()
                }
            })
            .unwrap_err();
        match err {
            ArrayDbError::Mismatch(msg) => {
                assert!(msg.ends_with("-> [3]"), "instances={instances}: {msg}");
            }
            other => panic!("instances={instances}: {other:?}"),
        }
        let copies = CopyCounter::snapshot().since(&before);
        recorded.push(
            copies
                .by_reason
                .get("scidb.stream-tsv")
                .map_or(0, |r| r.bytes),
        );
    }
    assert!(recorded[0] > 0, "chunks 0..3 were streamed");
    assert!(recorded.iter().all(|&b| b == recorded[0]), "{recorded:?}");
}

#[test]
fn panicking_udf_reaches_the_caller_with_its_message() {
    let _ledger = ledger();
    for instances in INSTANCES {
        let s = numbered(&ArrayDb::connect(instances));
        let payload = catch_unwind(AssertUnwindSafe(|| {
            s.stream(|chunk| {
                let c = chunk.data()[0] as usize;
                assert!(c != 5, "chunk {c} exploded");
                chunk.clone()
            })
        }))
        .expect_err("the UDF panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(msg, "chunk 5 exploded", "instances={instances}");
    }
}

#[test]
fn copy_ledger_matches_at_every_width() {
    let _ledger = ledger();
    let mut seen: Vec<ReasonStats> = Vec::new();
    for instances in INSTANCES {
        let s = stored(&ArrayDb::connect(instances));
        let copies_before = CopyCounter::snapshot();
        s.stream(udf).unwrap();
        let copies = CopyCounter::snapshot().since(&copies_before);
        let stream_tsv = copies.by_reason["scidb.stream-tsv"];
        assert_eq!(stream_tsv.copies, s.chunks.len() as u64, "one per chunk");
        assert!(stream_tsv.bytes > 0, "TSV bytes were recorded");
        seen.push(stream_tsv);
    }
    assert!(seen.iter().all(|x| *x == seen[0]), "{seen:?}");
}

#[test]
fn udfs_run_on_the_deployments_instances() {
    // The instances stream side by side: a multi-instance deployment
    // runs several UDF calls at once, never more than it has instances.
    // Calls wait until a second call has started (or a deadline passes),
    // so the overlap does not depend on how the OS schedules threads.
    let _ledger = ledger();
    for instances in INSTANCES {
        let running = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(2);
        let s = stored(&ArrayDb::connect(instances));
        s.stream(|chunk| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            while instances > 1 && most.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            running.fetch_sub(1, Ordering::SeqCst);
            chunk.clone()
        })
        .unwrap();
        let most = most.load(Ordering::SeqCst);
        assert!(
            most >= instances.min(2) && most <= instances,
            "{most} UDF calls ran at once on {instances} instances"
        );
    }
}
