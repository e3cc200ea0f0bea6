//! Property-based tests for marray invariants.
//!
//! Every test here takes [`ledgers`] first: the walker tests diff the
//! process-wide copy and codec ledgers, so nothing else in this binary
//! may run beside them.

use marray::{
    ChunkGrid, ChunkRepr, CodecCounter, CodecStats, CopyCounter, CopyStats, Element, Mask,
    MemoryGovernor, NdArray, Shape,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static LEDGERS: Mutex<()> = Mutex::new(());

/// Serialize on the process-wide copy and codec ledgers.
fn ledgers() -> MutexGuard<'static, ()> {
    LEDGERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Strategy: a small random shape of rank 1..=4 with extents 1..=6.
fn shapes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=6, 1..=4)
}

/// Strategy: a shape plus a matching data buffer.
fn arrays() -> impl Strategy<Value = NdArray<f64>> {
    shapes().prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1e3f64..1e3, len)
            .prop_map(move |data| NdArray::from_vec(&dims, data).unwrap())
    })
}

proptest! {
    #[test]
    fn offset_unravel_inverse(dims in shapes(), salt in 0usize..1000) {
        let _ledgers = ledgers();
        let shape = Shape::new(&dims);
        let off = salt % shape.len();
        prop_assert_eq!(shape.offset(&shape.unravel(off)), off);
    }

    #[test]
    fn sum_axis_preserves_total(a in arrays(), axis_salt in 0usize..4) {
        let _ledgers = ledgers();
        let axis = axis_salt % a.shape().rank();
        let reduced = a.sum_axis(axis);
        prop_assert!((reduced.sum() - a.sum()).abs() < 1e-6 * (1.0 + a.sum().abs()));
    }

    #[test]
    fn mean_axis_bounded_by_extremes(a in arrays(), axis_salt in 0usize..4) {
        let _ledgers = ledgers();
        let axis = axis_salt % a.shape().rank();
        let m = a.mean_axis(axis);
        let (lo, hi) = (a.min(), a.max());
        for &v in m.data() {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn slice_then_concat_roundtrip(a in arrays()) {
        let _ledgers = ledgers();
        let axis = a.shape().rank() - 1;
        let slices: Vec<NdArray<f64>> = (0..a.shape().dim(axis))
            .map(|i| {
                // Re-expand each slice to rank N with extent 1 on `axis`.
                let s = a.slice_axis(axis, i).unwrap();
                let mut dims = a.dims().to_vec();
                dims[axis] = 1;
                s.reshape(&dims).unwrap()
            })
            .collect();
        let refs: Vec<&NdArray<f64>> = slices.iter().collect();
        let back = NdArray::concat(&refs, axis).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn chunk_split_assemble_roundtrip(a in arrays(), chunk_salt in 1usize..4) {
        let _ledgers = ledgers();
        let chunk_dims: Vec<usize> = a.dims().iter().map(|&d| chunk_salt.min(d)).collect();
        let grid = ChunkGrid::new(a.dims(), &chunk_dims).unwrap();
        let chunks = grid.split(&a).unwrap();
        // Chunks partition the elements exactly.
        let total: usize = chunks.iter().map(|(_, c)| c.len()).sum();
        prop_assert_eq!(total, a.len());
        let back = grid.assemble(&chunks).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn compress_axis_count_matches_mask(a in arrays(), bits in prop::collection::vec(any::<bool>(), 1..=6)) {
        let _ledgers = ledgers();
        let axis = a.shape().rank() - 1;
        let extent = a.shape().dim(axis);
        let mut bits = bits;
        bits.resize(extent, false);
        let mask = Mask::from_vec(&[extent], bits.clone()).unwrap();
        let out = a.compress_axis(&mask, axis).unwrap();
        let kept = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(out.shape().dim(axis), kept);
    }

    #[test]
    fn subarray_write_restores(a in arrays()) {
        let _ledgers = ledgers();
        // Extract the full array as a subarray and write it back into zeros.
        let starts = vec![0; a.shape().rank()];
        let sub = a.subarray(&starts, a.dims()).unwrap();
        prop_assert_eq!(&sub, &a);
        let mut b = NdArray::<f64>::zeros(a.dims());
        b.write_subarray(&starts, &sub).unwrap();
        prop_assert_eq!(b, a);
    }

    #[test]
    fn mask_fill_fraction_in_unit_interval(a in arrays(), t in -1e3f64..1e3) {
        let _ledgers = ledgers();
        let m = Mask::threshold(&a, t);
        let f = m.fill_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(m.count() + a.data().iter().filter(|&&v| v <= t).count(), a.len());
    }
}

// ---------------------------------------------------------------------
// The strided walker against per-element references.
//
// Every strided copy (`subarray`, `write_subarray`, `slice_axis`,
// `take_axis`, `compress_axis`, `permute_axes`) and every axis fold is
// checked against a naive multi-index loop that lives only here. Like the
// loops the walker replaced, the references read a source once when the
// result is non-empty and never otherwise, and `write_subarray`'s
// reference unshares its destination exactly once; so the outputs must
// agree bit for bit and the copy and codec ledger deltas must be equal.

/// Element values: signed zeros, a NaN, extremes and ordinary numbers
/// (`u8` saturates them into 0..=255).
const PALETTE: [f64; 12] = [
    0.0,
    -0.0,
    1.5,
    -2.25,
    7.0,
    255.0,
    1e300,
    f64::NAN,
    0.1,
    3.0,
    42.0,
    -1e-300,
];

/// Patch values for `write_subarray`: unlike any `PALETTE` value in
/// either element type, so every misplaced write shows.
const PATCH_PALETTE: [f64; 12] = [
    11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.5,
];

/// How a walker test's source arrays are stored.
#[derive(Debug, Clone, Copy)]
enum Store {
    Dense,
    /// `compressed()`: Const or RLE when a codec shrinks the buffer.
    Encoded,
    /// `govern()`: the dense buffer read through the memory governor.
    Governed,
}

/// One walker test case: a shape of rank 0 to 4 (zero extents included),
/// run-structured values, a storage, and salts for the op parameters.
#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    keys: Vec<u8>,
    run: usize,
    store: Store,
    salts: Vec<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(0usize..=4, 0..=4),
        prop::collection::vec(any::<u8>(), 1..=4),
        1usize..=8,
        prop_oneof![
            Just(Store::Dense),
            Just(Store::Encoded),
            Just(Store::Governed)
        ],
        prop::collection::vec(any::<usize>(), 16),
    )
        .prop_map(|(dims, keys, run, store, salts)| Case {
            dims,
            keys,
            run,
            store,
            salts,
        })
}

impl Case {
    /// A fresh source of extents `dims`: its own buffer and decode cache,
    /// so two calls give two arrays with identical ledger behaviour.
    fn source<T: Element>(&self, dims: &[usize]) -> NdArray<T> {
        self.fill(dims, &PALETTE)
    }

    /// A fresh `write_subarray` patch, valued apart from every source.
    fn patch<T: Element>(&self, dims: &[usize]) -> NdArray<T> {
        self.fill(dims, &PATCH_PALETTE)
    }

    fn fill<T: Element>(&self, dims: &[usize], palette: &[f64; 12]) -> NdArray<T> {
        let len: usize = dims.iter().product();
        let data = (0..len)
            .map(|i| {
                let key = usize::from(self.keys[(i / self.run) % self.keys.len()]);
                T::from_f64(palette[key % palette.len()])
            })
            .collect();
        let dense = NdArray::from_vec(dims, data).unwrap();
        match self.store {
            Store::Dense => dense,
            Store::Encoded => dense.compressed(),
            Store::Governed => dense.govern(),
        }
    }

    fn salt(&self, i: usize) -> usize {
        self.salts[i % self.salts.len()]
    }

    /// A hyper-rectangle inside the shape, possibly empty: (starts, extents).
    fn window(&self) -> (Vec<usize>, Vec<usize>) {
        self.dims
            .iter()
            .enumerate()
            .map(|(a, &d)| {
                let s = self.salt(1 + 2 * a) % (d + 1);
                (s, self.salt(2 + 2 * a) % (d - s + 1))
            })
            .unzip()
    }

    /// A permutation of the axes (Fisher–Yates on the salts).
    fn perm(&self) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.dims.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, self.salt(9 + i) % (i + 1));
        }
        perm
    }

    /// Up to five positions along an axis of extent `d`, repeats and
    /// any order allowed.
    fn positions(&self, d: usize) -> Vec<usize> {
        if d == 0 {
            return Vec::new();
        }
        (0..self.salt(14) % 6).map(|i| self.salt(i) % d).collect()
    }
}

/// Shape and order-preserving bits: equality is bit equality (NaN, -0.0).
fn bits<T: Element>(a: &NdArray<T>) -> (Vec<usize>, Vec<u64>) {
    let data = a.data().iter().map(|v| v.to_ordered_u64()).collect();
    (a.dims().to_vec(), data)
}

/// `f`'s result with the copy and codec ledger deltas it caused.
fn ledgered<R>(f: impl FnOnce() -> R) -> (R, CopyStats, CodecStats) {
    let (copies, codec) = (CopyCounter::snapshot(), CodecCounter::snapshot());
    let r = f();
    (
        r,
        CopyCounter::snapshot().since(&copies),
        CodecCounter::snapshot().since(&codec),
    )
}

/// Reference gather: output index `ix` reads the source at `src_of(ix)`.
fn naive_gather<T: Element>(
    a: &NdArray<T>,
    dims: &[usize],
    src_of: impl Fn(&[usize]) -> Vec<usize>,
) -> NdArray<T> {
    let out = Shape::new(dims);
    let data = if out.is_empty() {
        Vec::new()
    } else {
        let src = a.data();
        out.indices()
            .map(|ix| src[a.shape().offset(&src_of(&ix))])
            .collect()
    };
    NdArray::from_vec(dims, data).unwrap()
}

/// Reference scatter: unshare `dst` once, then write `patch` element by
/// element at origin `starts`.
fn naive_write<T: Element>(dst: &mut NdArray<T>, starts: &[usize], patch: &NdArray<T>) {
    let shape = dst.shape().clone();
    let out = dst.data_mut();
    if patch.is_empty() {
        return;
    }
    let src = patch.data();
    for ix in patch.shape().indices() {
        let at: Vec<usize> = ix.iter().zip(starts).map(|(i, s)| i + s).collect();
        out[shape.offset(&at)] = src[patch.shape().offset(&ix)];
    }
}

/// Reference fold: each output cell folds its column in increasing
/// position along `axis`.
fn naive_fold<T: Element>(
    a: &NdArray<T>,
    axis: usize,
    init: f64,
    fold: impl Fn(f64, f64) -> f64,
    finish: impl Fn(f64, usize) -> f64,
) -> NdArray<f64> {
    let out = a.shape().without_axis(axis).unwrap();
    let n = a.shape().dim(axis);
    let mut acc = vec![init; out.len()];
    if !a.is_empty() {
        let src = a.data();
        for (cell, ix) in acc.iter_mut().zip(out.indices()) {
            let mut at = ix;
            at.insert(axis, 0);
            for k in 0..n {
                at[axis] = k;
                *cell = fold(*cell, src[a.shape().offset(&at)].to_f64());
            }
        }
    }
    for v in &mut acc {
        *v = finish(*v, n);
    }
    NdArray::from_vec(out.dims(), acc).unwrap()
}

/// Run `op` on one fresh source and `reference` on another: outputs and
/// ledger deltas must be equal.
fn same<T: Element, U: Element>(
    case: &Case,
    op: impl FnOnce(&NdArray<T>) -> NdArray<U>,
    reference: impl FnOnce(&NdArray<T>) -> NdArray<U>,
) -> Result<(), String> {
    let (a, b) = (case.source::<T>(&case.dims), case.source::<T>(&case.dims));
    let (got, got_copies, got_codec) = ledgered(|| op(&a));
    let (want, want_copies, want_codec) = ledgered(|| reference(&b));
    prop_assert_eq!(bits(&got), bits(&want));
    prop_assert_eq!(got_copies, want_copies);
    prop_assert_eq!(got_codec, want_codec);
    Ok(())
}

fn walker_matches_naive<T: Element>(case: &Case) -> Result<(), String> {
    let rank = case.dims.len();
    let (starts, extents) = case.window();
    same::<T, T>(
        case,
        |a| a.subarray(&starts, &extents).unwrap(),
        |a| {
            naive_gather(a, &extents, |ix| {
                ix.iter().zip(&starts).map(|(i, s)| i + s).collect()
            })
        },
    )?;

    // Unique and shared destinations, sources of every storage.
    for shared in [false, true] {
        let (mut dst, mut dst_ref) = (case.source::<T>(&case.dims), case.source::<T>(&case.dims));
        let (patch, patch_ref) = (case.patch::<T>(&extents), case.patch::<T>(&extents));
        let keep = shared.then(|| (dst.clone(), dst_ref.clone()));
        let ((), got_copies, got_codec) = ledgered(|| dst.write_subarray(&starts, &patch).unwrap());
        let ((), want_copies, want_codec) =
            ledgered(|| naive_write(&mut dst_ref, &starts, &patch_ref));
        prop_assert_eq!(bits(&dst), bits(&dst_ref));
        prop_assert_eq!(got_copies, want_copies);
        prop_assert_eq!(got_codec, want_codec);
        drop(keep);
    }

    // Non-unit row strides: any permutation, then slices below.
    let perm = case.perm();
    let perm_dims: Vec<usize> = perm.iter().map(|&p| case.dims[p]).collect();
    same::<T, T>(
        case,
        |a| a.permute_axes(&perm).unwrap(),
        |a| {
            naive_gather(a, &perm_dims, |ix| {
                let mut at = vec![0; rank];
                for (&i, &p) in ix.iter().zip(&perm) {
                    at[p] = i;
                }
                at
            })
        },
    )?;

    if rank == 0 {
        return Ok(());
    }
    let axis = case.salt(0) % rank;
    let d = case.dims[axis];

    let positions = case.positions(d);
    let mut take_dims = case.dims.clone();
    take_dims[axis] = positions.len();
    let at_positions = |ix: &[usize]| {
        let mut at = ix.to_vec();
        at[axis] = positions[ix[axis]];
        at
    };
    same::<T, T>(
        case,
        |a| a.take_axis(axis, &positions).unwrap(),
        |a| naive_gather(a, &take_dims, at_positions),
    )?;
    let keep: Vec<bool> = (0..d).map(|i| case.salt(i).is_multiple_of(2)).collect();
    let mask = Mask::from_vec(&[d], keep.clone()).unwrap();
    let kept: Vec<usize> = (0..d).filter(|&i| keep[i]).collect();
    let mut kept_dims = case.dims.clone();
    kept_dims[axis] = kept.len();
    same::<T, T>(
        case,
        |a| a.compress_axis(&mask, axis).unwrap(),
        |a| {
            naive_gather(a, &kept_dims, |ix| {
                let mut at = ix.to_vec();
                at[axis] = kept[ix[axis]];
                at
            })
        },
    )?;

    // The drawn axis and the last one (a row stride of the last extent).
    for slice_axis in [axis, rank - 1] {
        let d = case.dims[slice_axis];
        if d == 0 {
            prop_assert!(case
                .source::<T>(&case.dims)
                .slice_axis(slice_axis, 0)
                .is_err());
            continue;
        }
        let index = case.salt(15) % d;
        let out_dims = Shape::new(&case.dims).without_axis(slice_axis).unwrap();
        same::<T, T>(
            case,
            |a| a.slice_axis(slice_axis, index).unwrap(),
            |a| {
                naive_gather(a, out_dims.dims(), |ix| {
                    let mut at = ix.to_vec();
                    at.insert(slice_axis, index);
                    at
                })
            },
        )?;
    }

    let add = |s: f64, v: f64| s + v;
    same::<T, f64>(
        case,
        |a| a.sum_axis(axis),
        |a| naive_fold(a, axis, 0.0, add, |s, _| s),
    )?;
    same::<T, f64>(
        case,
        |a| a.mean_axis(axis),
        |a| naive_fold(a, axis, 0.0, add, |s, n| s / n as f64),
    )?;
    same::<T, f64>(
        case,
        |a| a.max_axis(axis),
        |a| naive_fold(a, axis, f64::NEG_INFINITY, f64::max, |s, _| s),
    )?;
    same::<T, f64>(
        case,
        |a| a.min_axis(axis),
        |a| naive_fold(a, axis, f64::INFINITY, f64::min, |s, _| s),
    )?;
    same::<T, f64>(
        case,
        |a| a.std_axis(axis),
        |a| {
            let mean = naive_fold(a, axis, 0.0, add, |s, n| s / n as f64);
            let sumsq = naive_fold(a, axis, 0.0, |s, v| s + v * v, |s, n| s / n as f64);
            sumsq
                .zip_with(&mean, |sq, m| (sq - m * m).max(0.0).sqrt())
                .unwrap()
        },
    )?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn walker_matches_naive_u8(case in cases()) {
        let _ledgers = ledgers();
        walker_matches_naive::<u8>(&case)?;
    }

    #[test]
    fn walker_matches_naive_f64(case in cases()) {
        let _ledgers = ledgers();
        walker_matches_naive::<f64>(&case)?;
    }
}

#[test]
fn walker_cases_reach_const_and_rle_storage() {
    let _ledgers = ledgers();
    let case = |keys: Vec<u8>, run, store| Case {
        dims: vec![4, 4, 4],
        keys,
        run,
        store,
        salts: vec![0; 16],
    };
    let konst = case(vec![3], 1, Store::Encoded).source::<f64>(&[4, 4, 4]);
    assert_eq!(konst.repr(), ChunkRepr::Const);
    let runs = case(vec![2, 9], 8, Store::Encoded).source::<f64>(&[4, 4, 4]);
    assert_eq!(runs.repr(), ChunkRepr::Rle);
    let resident = MemoryGovernor::snapshot().resident_bytes;
    let governed = case(vec![2, 9], 8, Store::Governed).source::<u8>(&[4, 4, 4]);
    assert_eq!(
        governed.repr(),
        ChunkRepr::Dense,
        "governed sources hold dense bytes"
    );
    assert_eq!(
        MemoryGovernor::snapshot().resident_bytes - resident,
        64,
        "the governor accounts a governed source's bytes"
    );
}
