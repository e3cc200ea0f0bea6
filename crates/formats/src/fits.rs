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

    /// Parse one card. Columns are byte offsets (keyword 1–8, `= ` at
    /// 9–10), so the split happens on bytes: a non-ASCII byte in a corrupt
    /// card must not shift a column or land a slice inside a character.
    fn parse(raw: &[u8]) -> Card {
        let (key, rest) = raw.split_at(8.min(raw.len()));
        let key = String::from_utf8_lossy(key).trim().to_string();
        let value = rest
            .strip_prefix(b"= ")
            .map(|value| {
                let text = String::from_utf8_lossy(value);
                text.split('/').next().unwrap_or("").trim().to_string()
            })
            .unwrap_or_default();
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

/// One Header-Data Unit: parsed header cards plus a typed 2-D image.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedHdu {
    /// All header cards (END excluded).
    pub cards: Vec<Card>,
    /// The image payload (rank 2).
    pub data: ImageData,
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
    let axis = |key: &str| -> Result<usize> {
        let n = find(key)?;
        usize::try_from(n).map_err(|_| FormatError::BadHeader {
            format: "fits",
            detail: format!("{key} {n} is negative"),
        })
    };
    let n1 = axis("NAXIS1")?;
    let n2 = axis("NAXIS2")?;
    let cell = if bitpix == -32 { 4 } else { 1 };
    let nbytes = n1
        .checked_mul(n2)
        .and_then(|n| n.checked_mul(cell))
        .ok_or_else(|| FormatError::BadHeader {
            format: "fits",
            detail: format!("NAXIS1 {n1} x NAXIS2 {n2} overflows"),
        })?;
    let end = cursor.checked_add(nbytes).filter(|&end| end <= buf.len());
    let Some(end) = end else {
        return Err(FormatError::Truncated {
            format: "fits",
            needed: cursor.saturating_add(nbytes),
            got: buf.len(),
        });
    };
    let payload = &buf[cursor..end];
    marray::CopyCounter::record("formats.fits-decode", nbytes);
    let data = if bitpix == -32 {
        let v = payload
            .chunks_exact(4)
            .map(|b| f32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        ImageData::F32(NdArray::from_vec(&[n2, n1], v)?)
    } else {
        ImageData::U8(NdArray::from_vec(&[n2, n1], payload.to_vec())?)
    };
    cursor = end;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(tag: f32, dims: &[usize]) -> NdArray<f32> {
        NdArray::from_fn(dims, |ix| tag + (ix[0] * dims[1] + ix[1]) as f32)
    }

    /// The use case's layout: f32 flux and variance planes, a u8 mask.
    fn exposure() -> Vec<TypedHdu> {
        vec![
            TypedHdu {
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
                data: ImageData::F32(plane(0.0, &[8, 10])),
            },
            TypedHdu {
                cards: vec![],
                data: ImageData::F32(plane(10_000.0, &[8, 10])),
            },
            TypedHdu {
                cards: vec![],
                data: ImageData::U8(NdArray::from_fn(&[8, 10], |ix| ((ix[0] + ix[1]) % 3) as u8)),
            },
        ]
    }

    #[test]
    fn roundtrip_three_hdus() {
        let hdus = exposure();
        let buf = encode_typed(&hdus);
        assert_eq!(buf.len() % BLOCK, 0);
        // Cards, payload types and pixels all come back exactly: the mask
        // stays a byte plane.
        assert_eq!(decode_typed(&buf).unwrap(), hdus);
    }

    #[test]
    fn header_block_is_ascii_cards() {
        let buf = encode_typed(&exposure());
        assert_eq!(&buf[..6], b"SIMPLE");
        // Every header byte in the first block is printable ASCII.
        assert!(buf[..BLOCK].iter().all(|&b| (0x20..0x7f).contains(&b)));
    }

    #[test]
    fn big_endian_payload() {
        let hdu = TypedHdu {
            cards: vec![],
            data: ImageData::F32(NdArray::from_vec(&[1, 1], vec![1.0f32]).unwrap()),
        };
        let buf = encode_typed(std::slice::from_ref(&hdu));
        // 1.0f32 big-endian = 3F 80 00 00, at the start of the data block.
        assert_eq!(&buf[BLOCK..BLOCK + 4], &[0x3f, 0x80, 0x00, 0x00]);
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = encode_typed(&exposure());
        buf.truncate(buf.len() - BLOCK);
        assert!(decode_typed(&buf).is_err());
    }

    /// Overwrite the value field (columns 11–30) of header card `idx`.
    fn set_card_value(buf: &mut [u8], idx: usize, value: &str) {
        buf[idx * CARD + 10..idx * CARD + 30].copy_from_slice(format!("{value:>20}").as_bytes());
    }

    #[test]
    fn malformed_headers_are_errors_not_panics() {
        // One-pixel byte plane: NAXIS1 is card 3, NAXIS2 card 4.
        let hdu = TypedHdu {
            cards: vec![],
            data: ImageData::U8(NdArray::from_vec(&[1, 1], vec![7u8]).unwrap()),
        };
        let buf = encode_typed(std::slice::from_ref(&hdu));
        let mut negative = buf.clone();
        set_card_value(&mut negative, 3, "-1");
        assert!(matches!(
            decode_typed(&negative),
            Err(FormatError::BadHeader { .. })
        ));
        let mut overflowing = buf.clone();
        set_card_value(&mut overflowing, 3, &i64::MAX.to_string());
        set_card_value(&mut overflowing, 4, &i64::MAX.to_string());
        assert!(matches!(
            decode_typed(&overflowing),
            Err(FormatError::BadHeader { .. })
        ));
        let mut past_the_end = buf.clone();
        set_card_value(&mut past_the_end, 3, &(1i64 << 40).to_string());
        assert!(matches!(
            decode_typed(&past_the_end),
            Err(FormatError::Truncated { .. })
        ));
        // A non-ASCII byte inside the keyword columns garbles that key
        // instead of splitting a character.
        let mut garbled = buf;
        garbled[7] = 0xff;
        assert!(matches!(
            decode_typed(&garbled),
            Err(FormatError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_bad_first_card() {
        let mut buf = encode_typed(&exposure());
        buf[0] = b'X';
        assert!(matches!(
            decode_typed(&buf),
            Err(FormatError::BadMagic { .. })
        ));
    }
}
