//! FITS codec (<https://fits.gsfc.nasa.gov>).
//!
//! Implements the real on-disk structure: headers are sequences of 80-byte
//! ASCII "cards" padded to 2880-byte blocks; data follow in big-endian IEEE
//! format, also padded to 2880-byte blocks. The astronomy use case stores a
//! sensor exposure as a primary HDU (flux) plus two image-extension HDUs
//! (variance, mask), matching "the data block has three 2D arrays, with each
//! element containing flux, variance, and mask for every pixel".

use crate::error::{FormatError, Result};
use marray::NdArray;

/// FITS logical record (block) size.
pub const BLOCK: usize = 2880;
/// Length of one header card.
pub const CARD: usize = 80;

/// One header keyword/value pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Card {
    /// Keyword (max 8 chars).
    pub key: String,
    /// Raw value text (already formatted per FITS fixed conventions).
    pub value: String,
}

impl Card {
    fn render(&self) -> [u8; CARD] {
        let mut out = [b' '; CARD];
        let text = if self.value.is_empty() {
            format!("{:<8}", self.key)
        } else {
            format!("{:<8}= {:>20}", self.key, self.value)
        };
        let bytes = text.as_bytes();
        let n = bytes.len().min(CARD);
        out[..n].copy_from_slice(&bytes[..n]);
        out
    }

    fn parse(raw: &[u8]) -> Card {
        let text = String::from_utf8_lossy(raw);
        let key = text[..8.min(text.len())].trim().to_string();
        let value = if text.len() > 10 && &text[8..10] == "= " {
            text[10..]
                .split('/')
                .next()
                .unwrap_or("")
                .trim()
                .to_string()
        } else {
            String::new()
        };
        Card { key, value }
    }
}

/// Pixel payload of one HDU: BITPIX -32 (IEEE float) for flux/variance
/// planes, BITPIX 8 (unsigned bytes) for mask planes.
#[derive(Debug, Clone, PartialEq)]
pub enum ImageData {
    /// BITPIX = -32.
    F32(NdArray<f32>),
    /// BITPIX = 8.
    U8(NdArray<u8>),
}

impl ImageData {
    /// Image dims (rows, cols).
    pub fn dims(&self) -> &[usize] {
        match self {
            ImageData::F32(a) => a.dims(),
            ImageData::U8(a) => a.dims(),
        }
    }

    /// View as f32 (converting bytes if needed).
    pub fn to_f32(&self) -> NdArray<f32> {
        match self {
            ImageData::F32(a) => a.clone(),
            ImageData::U8(a) => a.cast(),
        }
    }

    /// View as u8 (truncating floats if needed).
    pub fn to_u8(&self) -> NdArray<u8> {
        match self {
            ImageData::F32(a) => a.cast(),
            ImageData::U8(a) => a.clone(),
        }
    }
}

/// One Header-Data Unit: parsed header cards plus a 2-D float32 image.
#[derive(Debug, Clone, PartialEq)]
pub struct Hdu {
    /// All header cards (END excluded).
    pub cards: Vec<Card>,
    /// The image payload (rank 2).
    pub data: NdArray<f32>,
}

/// One HDU with a typed payload (the general form; [`Hdu`] is the
/// float-only convenience the pipelines mostly use).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedHdu {
    /// All header cards (END excluded).
    pub cards: Vec<Card>,
    /// The image payload (rank 2).
    pub data: ImageData,
}

impl Hdu {
    /// Look up a card's value text by keyword.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.cards
            .iter()
            .find(|c| c.key == key)
            .map(|c| c.value.as_str())
    }

    /// Look up a card and parse it as f64.
    pub fn value_f64(&self, key: &str) -> Option<f64> {
        self.value(key)
            .and_then(|v| v.trim_matches('\'').trim().parse().ok())
    }
}

fn pad_to_block(buf: &mut Vec<u8>, fill: u8) {
    let rem = buf.len() % BLOCK;
    if rem != 0 {
        buf.resize(buf.len() + (BLOCK - rem), fill);
    }
}

fn encode_hdu(cards_in: &[Card], data: &ImageData, primary: bool, out: &mut Vec<u8>) {
    let dims = data.dims();
    assert_eq!(dims.len(), 2, "FITS codec stores rank-2 images");
    let bitpix = match data {
        ImageData::F32(_) => "-32",
        ImageData::U8(_) => "8",
    };
    let mut cards: Vec<Card> = Vec::new();
    if primary {
        cards.push(Card {
            key: "SIMPLE".into(),
            value: "T".into(),
        });
    } else {
        cards.push(Card {
            key: "XTENSION".into(),
            value: "'IMAGE   '".into(),
        });
    }
    cards.push(Card {
        key: "BITPIX".into(),
        value: bitpix.into(),
    });
    cards.push(Card {
        key: "NAXIS".into(),
        value: "2".into(),
    });
    // FITS NAXIS1 is the fastest-varying axis = our last (column) axis.
    cards.push(Card {
        key: "NAXIS1".into(),
        value: dims[1].to_string(),
    });
    cards.push(Card {
        key: "NAXIS2".into(),
        value: dims[0].to_string(),
    });
    if primary {
        cards.push(Card {
            key: "EXTEND".into(),
            value: "T".into(),
        });
    } else {
        cards.push(Card {
            key: "PCOUNT".into(),
            value: "0".into(),
        });
        cards.push(Card {
            key: "GCOUNT".into(),
            value: "1".into(),
        });
    }
    cards.extend(cards_in.iter().cloned());
    for card in &cards {
        out.extend_from_slice(&card.render());
    }
    let mut end = [b' '; CARD];
    end[..3].copy_from_slice(b"END");
    out.extend_from_slice(&end);
    pad_to_block(out, b' ');
    match data {
        ImageData::F32(a) => {
            marray::CopyCounter::record("formats.fits-encode", a.nbytes());
            for &v in a.data() {
                out.extend_from_slice(&v.to_be_bytes()); // FITS is big-endian
            }
        }
        ImageData::U8(a) => {
            marray::CopyCounter::record("formats.fits-encode", a.nbytes());
            out.extend_from_slice(a.data());
        }
    }
    pad_to_block(out, 0);
}

/// Encode a sequence of float HDUs (first one is the primary).
pub fn encode(hdus: &[Hdu]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, hdu) in hdus.iter().enumerate() {
        encode_hdu(
            &hdu.cards,
            &ImageData::F32(hdu.data.clone()),
            i == 0,
            &mut out,
        );
    }
    out
}

/// Encode a sequence of typed HDUs (mixing BITPIX -32 and 8).
pub fn encode_typed(hdus: &[TypedHdu]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, hdu) in hdus.iter().enumerate() {
        encode_hdu(&hdu.cards, &hdu.data, i == 0, &mut out);
    }
    out
}

fn reserved(key: &str) -> bool {
    matches!(
        key,
        "SIMPLE"
            | "XTENSION"
            | "BITPIX"
            | "NAXIS"
            | "NAXIS1"
            | "NAXIS2"
            | "EXTEND"
            | "PCOUNT"
            | "GCOUNT"
    )
}

fn decode_hdu(buf: &[u8], pos: &mut usize, primary: bool) -> Result<TypedHdu> {
    let start = *pos;
    let mut cards = Vec::new();
    let mut ended = false;
    let mut cursor = start;
    while !ended {
        if cursor + BLOCK > buf.len() {
            return Err(FormatError::Truncated {
                format: "fits",
                needed: cursor + BLOCK,
                got: buf.len(),
            });
        }
        for c in 0..(BLOCK / CARD) {
            let raw = &buf[cursor + c * CARD..cursor + (c + 1) * CARD];
            let card = Card::parse(raw);
            if card.key == "END" {
                ended = true;
                break;
            }
            if !card.key.is_empty() {
                cards.push(card);
            }
        }
        cursor += BLOCK;
    }
    // Validate structural keywords.
    let expect_first = if primary { "SIMPLE" } else { "XTENSION" };
    if cards.first().map(|c| c.key.as_str()) != Some(expect_first) {
        return Err(FormatError::BadMagic {
            format: "fits",
            detail: format!("first card is {:?}, expected {expect_first}", cards.first()),
        });
    }
    let find = |key: &str| -> Result<i64> {
        cards
            .iter()
            .find(|c| c.key == key)
            .and_then(|c| c.value.trim().parse().ok())
            .ok_or_else(|| FormatError::BadHeader {
                format: "fits",
                detail: format!("missing {key}"),
            })
    };
    let bitpix = find("BITPIX")?;
    if bitpix != -32 && bitpix != 8 {
        return Err(FormatError::BadHeader {
            format: "fits",
            detail: format!("BITPIX {bitpix} unsupported"),
        });
    }
    let naxis = find("NAXIS")?;
    if naxis != 2 {
        return Err(FormatError::BadHeader {
            format: "fits",
            detail: format!("NAXIS {naxis} unsupported"),
        });
    }
    let n1 = find("NAXIS1")? as usize;
    let n2 = find("NAXIS2")? as usize;
    let cell = if bitpix == -32 { 4 } else { 1 };
    let nbytes = n1 * n2 * cell;
    if cursor + nbytes > buf.len() {
        return Err(FormatError::Truncated {
            format: "fits",
            needed: cursor + nbytes,
            got: buf.len(),
        });
    }
    let data = if bitpix == -32 {
        let mut v = Vec::with_capacity(n1 * n2);
        marray::CopyCounter::record("formats.fits-decode", nbytes);
        for i in 0..n1 * n2 {
            let o = cursor + 4 * i;
            v.push(f32::from_be_bytes([
                buf[o],
                buf[o + 1],
                buf[o + 2],
                buf[o + 3],
            ]));
        }
        ImageData::F32(NdArray::from_vec(&[n2, n1], v)?)
    } else {
        ImageData::U8({
            marray::CopyCounter::record("formats.fits-decode", nbytes);
            NdArray::from_vec(&[n2, n1], buf[cursor..cursor + nbytes].to_vec())?
        })
    };
    cursor += nbytes;
    // Skip data padding.
    let rem = cursor % BLOCK;
    if rem != 0 {
        cursor += BLOCK - rem;
    }
    *pos = cursor;
    let user_cards: Vec<Card> = cards.into_iter().filter(|c| !reserved(&c.key)).collect();
    Ok(TypedHdu {
        cards: user_cards,
        data,
    })
}

/// Decode every HDU in a FITS buffer as float images (BITPIX 8 payloads
/// are widened).
pub fn decode(buf: &[u8]) -> Result<Vec<Hdu>> {
    Ok(decode_typed(buf)?
        .into_iter()
        .map(|h| Hdu {
            cards: h.cards,
            data: h.data.to_f32(),
        })
        .collect())
}

/// Decode every HDU in a FITS buffer, preserving payload types.
pub fn decode_typed(buf: &[u8]) -> Result<Vec<TypedHdu>> {
    if buf.len() < BLOCK {
        return Err(FormatError::Truncated {
            format: "fits",
            needed: BLOCK,
            got: buf.len(),
        });
    }
    let mut pos = 0;
    let mut hdus = Vec::new();
    let mut primary = true;
    while pos + BLOCK <= buf.len() {
        // Stop at trailing zero padding (no further XTENSION).
        if !primary && buf[pos..pos + CARD].iter().all(|&b| b == 0 || b == b' ') {
            break;
        }
        hdus.push(decode_hdu(buf, &mut pos, primary)?);
        primary = false;
    }
    Ok(hdus)
}

/// Write HDUs to a `.fits` file.
pub fn write_file(path: &std::path::Path, hdus: &[Hdu]) -> Result<()> {
    std::fs::write(path, encode(hdus))?;
    Ok(())
}

/// Read all HDUs from a `.fits` file.
pub fn read_file(path: &std::path::Path) -> Result<Vec<Hdu>> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(tag: f32, dims: &[usize]) -> NdArray<f32> {
        NdArray::from_fn(dims, |ix| tag + (ix[0] * dims[1] + ix[1]) as f32)
    }

    fn exposure() -> Vec<Hdu> {
        vec![
            Hdu {
                cards: vec![
                    Card {
                        key: "VISIT".into(),
                        value: "7".into(),
                    },
                    Card {
                        key: "SENSOR".into(),
                        value: "12".into(),
                    },
                ],
                data: plane(0.0, &[8, 10]),
            },
            Hdu {
                cards: vec![],
                data: plane(10_000.0, &[8, 10]),
            },
            Hdu {
                cards: vec![],
                data: plane(20_000.0, &[8, 10]),
            },
        ]
    }

    #[test]
    fn roundtrip_three_hdus() {
        let hdus = exposure();
        let buf = encode(&hdus);
        assert_eq!(buf.len() % BLOCK, 0);
        let back = decode(&buf).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in hdus.iter().zip(&back) {
            assert_eq!(a.data, b.data);
        }
        assert_eq!(back[0].value("VISIT"), Some("7"));
        assert_eq!(back[0].value_f64("SENSOR"), Some(12.0));
    }

    #[test]
    fn header_block_is_ascii_cards() {
        let buf = encode(&exposure());
        assert_eq!(&buf[..6], b"SIMPLE");
        // Every header byte in the first block is printable ASCII.
        assert!(buf[..BLOCK].iter().all(|&b| (0x20..0x7f).contains(&b)));
    }

    #[test]
    fn big_endian_payload() {
        let hdu = Hdu {
            cards: vec![],
            data: NdArray::from_vec(&[1, 1], vec![1.0f32]).unwrap(),
        };
        let buf = encode(std::slice::from_ref(&hdu));
        // 1.0f32 big-endian = 3F 80 00 00, at the start of the data block.
        assert_eq!(&buf[BLOCK..BLOCK + 4], &[0x3f, 0x80, 0x00, 0x00]);
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = encode(&exposure());
        buf.truncate(buf.len() - BLOCK);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn rejects_bad_first_card() {
        let mut buf = encode(&exposure());
        buf[0] = b'X';
        assert!(matches!(decode(&buf), Err(FormatError::BadMagic { .. })));
    }

    #[test]
    fn typed_roundtrip_with_u8_mask_plane() {
        // The use case's real layout: f32 flux + f32 variance + u8 mask.
        let mask = NdArray::from_fn(&[6, 9], |ix| ((ix[0] + ix[1]) % 3) as u8);
        let hdus = vec![
            TypedHdu {
                cards: vec![],
                data: ImageData::F32(plane(0.0, &[6, 9])),
            },
            TypedHdu {
                cards: vec![],
                data: ImageData::F32(plane(500.0, &[6, 9])),
            },
            TypedHdu {
                cards: vec![],
                data: ImageData::U8(mask.clone()),
            },
        ];
        let buf = encode_typed(&hdus);
        let back = decode_typed(&buf).unwrap();
        assert_eq!(back.len(), 3);
        assert!(matches!(back[0].data, ImageData::F32(_)));
        assert_eq!(back[2].data.to_u8(), mask);
        // The u8 plane is byte-exact and 4× smaller than a float plane.
        assert_eq!(back[2].data, ImageData::U8(mask));
        // The float decode path widens the mask losslessly for small ints.
        let widened = decode(&buf).unwrap();
        assert_eq!(widened[2].data.cast::<u8>(), hdus[2].data.to_u8());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("scibench_fits_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.fits");
        let hdus = exposure();
        write_file(&path, &hdus).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].data, hdus[1].data);
        std::fs::remove_file(&path).ok();
    }
}
