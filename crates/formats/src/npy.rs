//! NumPy `.npy` v1.0 codec.
//!
//! This is the staging format the paper uses for Spark and Myria ingest:
//! "we first convert the NIfTI files into individual image volumes, which we
//! persist as pickled NumPy files per image in S3". The v1.0 format is
//! `\x93NUMPY`, version bytes, a little-endian u16 header length, an ASCII
//! dict `{'descr': '<f4', 'fortran_order': False, 'shape': (..,), }` padded
//! so the payload starts at a 64-byte boundary, then raw little-endian data.

use crate::error::{FormatError, Result};
use marray::NdArray;

const MAGIC: &[u8; 6] = b"\x93NUMPY";

/// Encode a float32 array as `.npy` v1.0 bytes.
pub fn encode_f32(array: &NdArray<f32>) -> Vec<u8> {
    encode_raw(
        "<f4",
        array.dims(),
        array.data().iter().flat_map(|v| v.to_le_bytes()).collect(),
    )
}

/// Encode a float64 array as `.npy` v1.0 bytes.
pub fn encode_f64(array: &NdArray<f64>) -> Vec<u8> {
    encode_raw(
        "<f8",
        array.dims(),
        array.data().iter().flat_map(|v| v.to_le_bytes()).collect(),
    )
}

fn encode_raw(descr: &str, dims: &[usize], payload: Vec<u8>) -> Vec<u8> {
    // Serializing the payload to bytes is the staging-format copy the
    // paper's Spark/Myria ingest pays; the counter makes it visible.
    marray::CopyCounter::record("formats.npy-encode", payload.len());
    let shape = match dims.len() {
        0 => "()".to_string(),
        1 => format!("({},)", dims[0]),
        _ => format!(
            "({})",
            dims.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    let mut dict = format!("{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape}, }}");
    // Pad with spaces + trailing newline so that (10 + len) % 64 == 0.
    let base = MAGIC.len() + 2 + 2; // magic + version + header-len field
    let total = (base + dict.len() + 1).div_ceil(64) * 64;
    while base + dict.len() + 1 < total {
        dict.push(' ');
    }
    dict.push('\n');

    let mut out = Vec::with_capacity(total + payload.len());
    out.extend_from_slice(MAGIC);
    out.push(1); // major
    out.push(0); // minor
    out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
    out.extend_from_slice(dict.as_bytes());
    out.extend_from_slice(&payload);
    out
}

fn parse_header(buf: &[u8]) -> Result<(String, Vec<usize>, usize)> {
    if buf.len() < 10 {
        return Err(FormatError::Truncated {
            format: "npy",
            needed: 10,
            got: buf.len(),
        });
    }
    if &buf[..6] != MAGIC {
        return Err(FormatError::BadMagic {
            format: "npy",
            detail: format!("{:?}", &buf[..6]),
        });
    }
    if buf[6] != 1 {
        return Err(FormatError::BadHeader {
            format: "npy",
            detail: format!("version {}.{}", buf[6], buf[7]),
        });
    }
    let hlen = u16::from_le_bytes([buf[8], buf[9]]) as usize;
    let data_start = 10 + hlen;
    if buf.len() < data_start {
        return Err(FormatError::Truncated {
            format: "npy",
            needed: data_start,
            got: buf.len(),
        });
    }
    let header = String::from_utf8_lossy(&buf[10..data_start]);
    let descr = extract_quoted(&header, "descr").ok_or_else(|| FormatError::Parse {
        format: "npy",
        detail: "missing descr".into(),
    })?;
    if header.contains("'fortran_order': True") {
        return Err(FormatError::BadHeader {
            format: "npy",
            detail: "fortran_order unsupported".into(),
        });
    }
    let shape_src = header
        .split("'shape':")
        .nth(1)
        .and_then(|s| s.split('(').nth(1))
        .and_then(|s| s.split(')').next())
        .ok_or_else(|| FormatError::Parse {
            format: "npy",
            detail: "missing shape".into(),
        })?;
    let dims: Vec<usize> = shape_src
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>().map_err(|e| FormatError::Parse {
                format: "npy",
                detail: format!("shape element {s:?}: {e}"),
            })
        })
        .collect::<Result<_>>()?;
    Ok((descr, dims, data_start))
}

fn extract_quoted(header: &str, key: &str) -> Option<String> {
    let pat = format!("'{key}':");
    let rest = header.split(&pat).nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('\'')?;
    Some(rest.split('\'').next()?.to_string())
}

/// Decode `.npy` bytes into a float32 array (accepts `<f4` payloads).
pub fn decode_f32(buf: &[u8]) -> Result<NdArray<f32>> {
    let (descr, dims, start) = parse_header(buf)?;
    if descr != "<f4" {
        return Err(FormatError::BadHeader {
            format: "npy",
            detail: format!("descr {descr:?}, expected <f4"),
        });
    }
    let n: usize = dims.iter().product();
    let needed = start + 4 * n;
    if buf.len() < needed {
        return Err(FormatError::Truncated {
            format: "npy",
            needed,
            got: buf.len(),
        });
    }
    marray::CopyCounter::record("formats.npy-decode", 4 * n);
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let o = start + 4 * i;
        data.push(f32::from_le_bytes([
            buf[o],
            buf[o + 1],
            buf[o + 2],
            buf[o + 3],
        ]));
    }
    Ok(NdArray::from_vec(&dims, data)?)
}

/// Decode `.npy` bytes into a float64 array (accepts `<f8` payloads).
pub fn decode_f64(buf: &[u8]) -> Result<NdArray<f64>> {
    let (descr, dims, start) = parse_header(buf)?;
    if descr != "<f8" {
        return Err(FormatError::BadHeader {
            format: "npy",
            detail: format!("descr {descr:?}, expected <f8"),
        });
    }
    let n: usize = dims.iter().product();
    let needed = start + 8 * n;
    if buf.len() < needed {
        return Err(FormatError::Truncated {
            format: "npy",
            needed,
            got: buf.len(),
        });
    }
    marray::CopyCounter::record("formats.npy-decode", 8 * n);
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let o = start + 8 * i;
        data.push(f64::from_le_bytes([
            buf[o],
            buf[o + 1],
            buf[o + 2],
            buf[o + 3],
            buf[o + 4],
            buf[o + 5],
            buf[o + 6],
            buf[o + 7],
        ]));
    }
    Ok(NdArray::from_vec(&dims, data)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let a = NdArray::from_fn(&[4, 5, 3], |ix| (ix[0] + 10 * ix[1] + 100 * ix[2]) as f32);
        let buf = encode_f32(&a);
        let b = decode_f32(&buf).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn f64_roundtrip_rank1() {
        let a = NdArray::from_vec(&[5], vec![1.5f64, -2.25, 0.0, 3.0, 9.75]).unwrap();
        let b = decode_f64(&encode_f64(&a)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_starts_at_64_byte_boundary() {
        let a = NdArray::<f32>::zeros(&[2, 2]);
        let buf = encode_f32(&a);
        let hlen = u16::from_le_bytes([buf[8], buf[9]]) as usize;
        assert_eq!((10 + hlen) % 64, 0);
        assert!(String::from_utf8_lossy(&buf[10..10 + hlen]).ends_with('\n'));
    }

    #[test]
    fn dtype_mismatch_is_error() {
        let a = NdArray::<f64>::zeros(&[3]);
        assert!(decode_f32(&encode_f64(&a)).is_err());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let a = NdArray::<f32>::zeros(&[3]);
        let mut buf = encode_f32(&a);
        buf[0] = 0;
        assert!(matches!(
            decode_f32(&buf),
            Err(FormatError::BadMagic { .. })
        ));
        let buf = encode_f32(&a);
        assert!(matches!(
            decode_f32(&buf[..buf.len() - 2]),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn header_is_numpy_readable_dict() {
        let a = NdArray::<f32>::zeros(&[7, 9]);
        let buf = encode_f32(&a);
        let hlen = u16::from_le_bytes([buf[8], buf[9]]) as usize;
        let header = String::from_utf8_lossy(&buf[10..10 + hlen]).into_owned();
        assert!(header.contains("'descr': '<f4'"));
        assert!(header.contains("'shape': (7, 9)"));
        assert!(header.contains("'fortran_order': False"));
    }
}
