//! NIfTI-1 codec (<https://nifti.nimh.nih.gov/nifti-1>).
//!
//! Implements the real single-file (`.nii`) layout: the 348-byte binary
//! header, 4 bytes of extension flags, then the voxel payload at
//! `vox_offset` (352). Little-endian byte order, `DT_FLOAT32` payloads —
//! the combination the Human Connectome Project dMRI releases use.

use crate::error::{FormatError, Result};
use marray::NdArray;

/// NIfTI-1 datatype code for 32-bit IEEE floats.
pub const DT_FLOAT32: i16 = 16;
/// Fixed header size mandated by the spec.
pub const HEADER_SIZE: usize = 348;
/// Offset of the voxel data in a single-file `.nii`.
pub const VOX_OFFSET: usize = 352;

/// The subset of NIfTI-1 header fields the pipelines use.
#[derive(Debug, Clone, PartialEq)]
pub struct NiftiHeader {
    /// Number of dimensions (1..=7) followed by extents; `dim[0]` is rank.
    pub dim: [i16; 8],
    /// Datatype code (only [`DT_FLOAT32`] is supported).
    pub datatype: i16,
    /// Bits per voxel (32 for float32).
    pub bitpix: i16,
    /// Grid spacings; `pixdim[1..=3]` are voxel sizes in mm.
    pub pixdim: [f32; 8],
    /// Byte offset of the voxel data.
    pub vox_offset: f32,
    /// Free-text description.
    pub descrip: [u8; 80],
}

impl NiftiHeader {
    /// Header for a float32 volume of the given dims (rank 1..=7) with
    /// isotropic voxel size `voxel_mm`.
    pub fn for_dims(dims: &[usize], voxel_mm: f32) -> Result<Self> {
        if dims.is_empty() || dims.len() > 7 {
            return Err(FormatError::BadHeader {
                format: "nifti",
                detail: format!("rank {} outside 1..=7", dims.len()),
            });
        }
        let mut dim = [1i16; 8];
        dim[0] = dims.len() as i16;
        for (i, &d) in dims.iter().enumerate() {
            if d == 0 || d > i16::MAX as usize {
                return Err(FormatError::BadHeader {
                    format: "nifti",
                    detail: format!("extent {d} not representable"),
                });
            }
            dim[i + 1] = d as i16;
        }
        let mut pixdim = [1.0f32; 8];
        for p in pixdim.iter_mut().take(4).skip(1) {
            *p = voxel_mm;
        }
        let mut descrip = [0u8; 80];
        let text = b"scibench synthetic dMRI";
        descrip[..text.len()].copy_from_slice(text);
        Ok(NiftiHeader {
            dim,
            datatype: DT_FLOAT32,
            bitpix: 32,
            pixdim,
            vox_offset: VOX_OFFSET as f32,
            descrip,
        })
    }

    /// Dims as a shape vector (drops trailing 1-extents beyond the rank).
    pub fn dims(&self) -> Vec<usize> {
        let rank = self.dim[0] as usize;
        (1..=rank).map(|i| self.dim[i] as usize).collect()
    }

    /// Number of voxels.
    pub fn num_voxels(&self) -> usize {
        self.dims().iter().product()
    }
}

fn put_i16(buf: &mut [u8], off: usize, v: i16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn put_i32(buf: &mut [u8], off: usize, v: i32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn put_f32(buf: &mut [u8], off: usize, v: f32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn get_i16(buf: &[u8], off: usize) -> i16 {
    i16::from_le_bytes([buf[off], buf[off + 1]])
}
fn get_f32(buf: &[u8], off: usize) -> f32 {
    f32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Encode a float32 array as a single-file NIfTI-1 (`.nii`) byte buffer.
pub fn encode(array: &NdArray<f32>, voxel_mm: f32) -> Result<Vec<u8>> {
    let header = NiftiHeader::for_dims(array.dims(), voxel_mm)?;
    let mut buf = vec![0u8; VOX_OFFSET + array.len() * 4];
    // Field offsets per the NIfTI-1 C struct layout.
    put_i32(&mut buf, 0, HEADER_SIZE as i32); // sizeof_hdr
    for (i, &d) in header.dim.iter().enumerate() {
        put_i16(&mut buf, 40 + 2 * i, d); // dim[8]
    }
    put_i16(&mut buf, 70, header.datatype); // datatype
    put_i16(&mut buf, 72, header.bitpix); // bitpix
    for (i, &p) in header.pixdim.iter().enumerate() {
        put_f32(&mut buf, 76 + 4 * i, p); // pixdim[8]
    }
    put_f32(&mut buf, 108, header.vox_offset); // vox_offset
    put_f32(&mut buf, 112, 1.0); // scl_slope
    buf[148..228].copy_from_slice(&header.descrip); // descrip[80]
    buf[344..348].copy_from_slice(b"n+1\0"); // magic
                                             // 4 bytes of extension flags (all zero = no extensions) at 348..352.
    marray::CopyCounter::record("formats.nifti-encode", array.nbytes());
    let mut off = VOX_OFFSET;
    for &v in array.data() {
        buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
        off += 4;
    }
    Ok(buf)
}

/// Decode a single-file NIfTI-1 byte buffer.
pub fn decode(buf: &[u8]) -> Result<(NiftiHeader, NdArray<f32>)> {
    if buf.len() < VOX_OFFSET {
        return Err(FormatError::Truncated {
            format: "nifti",
            needed: VOX_OFFSET,
            got: buf.len(),
        });
    }
    if &buf[344..348] != b"n+1\0" {
        return Err(FormatError::BadMagic {
            format: "nifti",
            detail: format!("{:?}", &buf[344..348]),
        });
    }
    let sizeof_hdr = i32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if sizeof_hdr != HEADER_SIZE as i32 {
        return Err(FormatError::BadHeader {
            format: "nifti",
            detail: format!("sizeof_hdr = {sizeof_hdr}"),
        });
    }
    let mut dim = [0i16; 8];
    for (i, d) in dim.iter_mut().enumerate() {
        *d = get_i16(buf, 40 + 2 * i);
    }
    let datatype = get_i16(buf, 70);
    if datatype != DT_FLOAT32 {
        return Err(FormatError::BadHeader {
            format: "nifti",
            detail: format!("unsupported datatype {datatype}"),
        });
    }
    let bitpix = get_i16(buf, 72);
    let mut pixdim = [0f32; 8];
    for (i, p) in pixdim.iter_mut().enumerate() {
        *p = get_f32(buf, 76 + 4 * i);
    }
    let vox_offset = get_f32(buf, 108);
    let mut descrip = [0u8; 80];
    descrip.copy_from_slice(&buf[148..228]);
    let header = NiftiHeader {
        dim,
        datatype,
        bitpix,
        pixdim,
        vox_offset,
        descrip,
    };

    let rank = header.dim[0];
    if !(1..=7).contains(&rank) {
        return Err(FormatError::BadHeader {
            format: "nifti",
            detail: format!("dim[0] = {rank}"),
        });
    }
    // Every in-rank extent must be a positive i16; a corrupted header with
    // negative extents would otherwise wrap to enormous indices.
    for i in 1..=rank as usize {
        if header.dim[i] <= 0 {
            return Err(FormatError::BadHeader {
                format: "nifti",
                detail: format!("dim[{i}] = {}", header.dim[i]),
            });
        }
    }
    if !vox_offset.is_finite() || vox_offset < HEADER_SIZE as f32 || vox_offset > 1e9 {
        return Err(FormatError::BadHeader {
            format: "nifti",
            detail: format!("vox_offset = {vox_offset}"),
        });
    }
    let dims = header.dims();
    let n = header.num_voxels();
    let data_start = vox_offset as usize;
    let needed = n
        .checked_mul(4)
        .and_then(|b| b.checked_add(data_start))
        .ok_or(FormatError::BadHeader {
            format: "nifti",
            detail: "size overflow".into(),
        })?;
    if buf.len() < needed {
        return Err(FormatError::Truncated {
            format: "nifti",
            needed,
            got: buf.len(),
        });
    }
    marray::CopyCounter::record("formats.nifti-decode", 4 * n);
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let off = data_start + 4 * i;
        data.push(f32::from_le_bytes([
            buf[off],
            buf[off + 1],
            buf[off + 2],
            buf[off + 3],
        ]));
    }
    Ok((header, NdArray::from_vec(&dims, data)?))
}

/// Write an array to a `.nii` file.
pub fn write_file(path: &std::path::Path, array: &NdArray<f32>, voxel_mm: f32) -> Result<()> {
    std::fs::write(path, encode(array, voxel_mm)?)?;
    Ok(())
}

/// Read a `.nii` file.
pub fn read_file(path: &std::path::Path) -> Result<(NiftiHeader, NdArray<f32>)> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NdArray<f32> {
        NdArray::from_fn(&[3, 4, 5, 2], |ix| {
            (ix[0] as f32) + 10.0 * ix[1] as f32 + 100.0 * ix[2] as f32 + 1000.0 * ix[3] as f32
        })
    }

    #[test]
    fn roundtrip_4d() {
        let a = sample();
        let buf = encode(&a, 1.25).unwrap();
        assert_eq!(buf.len(), VOX_OFFSET + a.len() * 4);
        let (h, b) = decode(&buf).unwrap();
        assert_eq!(h.dims(), vec![3, 4, 5, 2]);
        assert_eq!(h.pixdim[1], 1.25);
        assert_eq!(a, b);
    }

    #[test]
    fn header_size_is_canonical() {
        let a = sample();
        let buf = encode(&a, 1.0).unwrap();
        assert_eq!(i32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]), 348);
        assert_eq!(&buf[344..348], b"n+1\0");
    }

    #[test]
    fn rejects_bad_magic() {
        let a = sample();
        let mut buf = encode(&a, 1.0).unwrap();
        buf[344] = b'x';
        assert!(matches!(decode(&buf), Err(FormatError::BadMagic { .. })));
    }

    #[test]
    fn rejects_truncated_payload() {
        let a = sample();
        let mut buf = encode(&a, 1.0).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(matches!(decode(&buf), Err(FormatError::Truncated { .. })));
    }

    #[test]
    fn rejects_non_float_datatype() {
        let a = sample();
        let mut buf = encode(&a, 1.0).unwrap();
        buf[70] = 4; // DT_INT16
        assert!(matches!(decode(&buf), Err(FormatError::BadHeader { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("scibench_nifti_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.nii");
        let a = sample();
        write_file(&path, &a, 1.25).unwrap();
        let (_, b) = read_file(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paper_scale_volume_roundtrip() {
        // Two full-size HCP volumes (145×145×174): ~29 MB of payload.
        let a = NdArray::from_fn(&[145, 145, 174, 2], |ix| {
            (ix[0] * 7 + ix[1] * 3 + ix[2] + ix[3] * 11) as f32 * 0.25
        });
        let buf = encode(&a, 1.25).unwrap();
        assert_eq!(buf.len(), VOX_OFFSET + 145 * 145 * 174 * 2 * 4);
        let (h, b) = decode(&buf).unwrap();
        assert_eq!(h.dims(), vec![145, 145, 174, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn rank_limits() {
        assert!(NiftiHeader::for_dims(&[], 1.0).is_err());
        assert!(NiftiHeader::for_dims(&[1; 8], 1.0).is_err());
        assert!(NiftiHeader::for_dims(&[145, 145, 174, 288], 1.25).is_ok());
    }
}
