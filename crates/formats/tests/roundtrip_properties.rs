//! Property-based round-trip tests for every codec in `formats`.

use formats::{fits, nifti, npy, text};
use marray::NdArray;
use proptest::prelude::*;

fn f32_arrays(max_rank: usize) -> impl Strategy<Value = NdArray<f32>> {
    prop::collection::vec(1usize..=5, 1..=max_rank).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1e6f32..1e6, len)
            .prop_map(move |data| NdArray::from_vec(&dims, data).unwrap())
    })
}

fn images() -> impl Strategy<Value = NdArray<f32>> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        prop::collection::vec(-1e6f32..1e6, r * c)
            .prop_map(move |data| NdArray::from_vec(&[r, c], data).unwrap())
    })
}

proptest! {
    #[test]
    fn nifti_roundtrip(a in f32_arrays(4), voxel in 0.5f32..3.0) {
        let buf = nifti::encode(&a, voxel).unwrap();
        let (h, b) = nifti::decode(&buf).unwrap();
        prop_assert_eq!(h.dims(), a.dims().to_vec());
        prop_assert_eq!(a, b);
        prop_assert_eq!(h.pixdim[1], voxel);
    }

    #[test]
    fn nifti_size_is_exact(a in f32_arrays(4)) {
        let buf = nifti::encode(&a, 1.0).unwrap();
        prop_assert_eq!(buf.len(), nifti::VOX_OFFSET + 4 * a.len());
    }

    #[test]
    fn fits_roundtrip_multi_hdu(planes in prop::collection::vec(images(), 1..=3)) {
        let hdus: Vec<fits::TypedHdu> = planes
            .into_iter()
            .map(|p| fits::TypedHdu { cards: vec![], data: fits::ImageData::F32(p) })
            .collect();
        let buf = fits::encode_typed(&hdus);
        prop_assert_eq!(buf.len() % fits::BLOCK, 0);
        prop_assert_eq!(fits::decode_typed(&buf).unwrap(), hdus);
    }

    #[test]
    fn npy_f32_roundtrip(a in f32_arrays(4)) {
        prop_assert_eq!(npy::decode_f32(&npy::encode_f32(&a)).unwrap(), a);
    }

    #[test]
    fn npy_header_alignment(a in f32_arrays(4)) {
        let buf = npy::encode_f32(&a);
        let hlen = u16::from_le_bytes([buf[8], buf[9]]) as usize;
        prop_assert_eq!((10 + hlen) % 64, 0);
    }

    #[test]
    fn csv_roundtrip(a in f32_arrays(3)) {
        let csv = text::to_csv(&a);
        prop_assert_eq!(text::from_csv(&csv, a.dims()).unwrap(), a);
    }

    #[test]
    fn tsv_roundtrip(a in f32_arrays(3)) {
        prop_assert_eq!(text::from_tsv(&text::to_tsv(&a)).unwrap(), a);
    }

    #[test]
    fn decode_never_panics_on_mutated_nifti(
        a in f32_arrays(2),
        pos in 0usize..400,
        byte in any::<u8>(),
    ) {
        let mut buf = nifti::encode(&a, 1.0).unwrap();
        let idx = pos % buf.len();
        buf[idx] = byte;
        let _ = nifti::decode(&buf); // must not panic; error is acceptable
    }

    #[test]
    fn decode_never_panics_on_mutated_fits(
        planes in prop::collection::vec(images(), 1..=2),
        card in 0usize..5,
        value in prop_oneof![any::<i64>(), -4i64..64],
        pos in 0usize..4 * fits::BLOCK,
        byte in any::<u8>(),
    ) {
        let hdus: Vec<fits::TypedHdu> = planes
            .into_iter()
            .map(|p| fits::TypedHdu { cards: vec![], data: fits::ImageData::F32(p) })
            .collect();
        let mut buf = fits::encode_typed(&hdus);
        // Rewrite one structural card of the primary header (SIMPLE, BITPIX,
        // NAXIS, NAXIS1 or NAXIS2) to any integer, then overwrite one byte.
        let field = card * fits::CARD + 10..card * fits::CARD + 30;
        buf[field].copy_from_slice(format!("{value:>20}").as_bytes());
        let idx = pos % buf.len();
        buf[idx] = byte;
        let _ = fits::decode_typed(&buf); // must not panic; error is acceptable
    }
}
