//! Lightweight chunk compression: the codecs behind [`crate::ChunkBuf`]'s
//! compressed representations.
//!
//! MorphStore-style holistic compression (Damme et al., VLDB 2020) applied
//! to the workloads of Mehta et al. (VLDB 2017): the planes these pipelines
//! move are highly redundant — mask planes are almost entirely zero,
//! variance planes are per-sensor constants, sky backgrounds are smooth —
//! so the bytes crossing engine boundaries can shrink by integer factors
//! without touching payload semantics. Two codecs cover those shapes:
//!
//! * **Const** — a single value covering the whole chunk (all-zero masks,
//!   uniform variance planes). One value + a length.
//! * **Rle** — run-length encoding over *bit-pattern* runs (mostly-constant
//!   masks and variance planes with a few flagged regions).
//!
//! Every codec is exact: `encode` → [`Encoded::decode`] reproduces the
//! original buffer **bit for bit**, NaN payloads, `-0.0` and subnormals
//! included, because run detection operates on the ordered bit patterns of
//! [`Element::to_ordered_u64`], never on float `==`. Kernels read every
//! plane dense, so that round trip is the whole of the bit-identity
//! argument for compressed chunks.
//!
//! Encode/decode traffic is accounted twice over: the [`CodecCounter`]
//! ledger tracks per-codec bytes in/out and call counts, and each call is
//! folded into the process-wide [`CopyCounter`] ledger under the
//! `"codec.encode"` / `"codec.decode"` reason tags so the existing
//! copies-per-run reporting sees compression work alongside deep copies.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::chunkstore::CopyCounter;
use crate::element::Element;

/// The storage representation of a [`crate::ChunkBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRepr {
    /// Uncompressed element buffer.
    Dense,
    /// Run-length encoded bit-pattern runs.
    Rle,
    /// A single value covering the whole chunk.
    Const,
}

impl ChunkRepr {
    /// Stable lowercase name (artifact/report key).
    pub fn as_str(&self) -> &'static str {
        match self {
            ChunkRepr::Dense => "dense",
            ChunkRepr::Rle => "rle",
            ChunkRepr::Const => "const",
        }
    }
}

/// Per-codec encode/decode traffic for one representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecReprStats {
    /// Buffers encoded into this representation.
    pub encodes: u64,
    /// Buffers decoded out of this representation.
    pub decodes: u64,
    /// Dense bytes that entered the encoder.
    pub dense_bytes: u64,
    /// Encoded bytes the encoder produced.
    pub encoded_bytes: u64,
}

/// Per-codec ledger snapshot (or delta), deterministically ordered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodecStats {
    /// Traffic per representation name (`"rle"`, `"const"`).
    pub by_codec: BTreeMap<String, CodecReprStats>,
}

impl CodecStats {
    /// The traffic recorded between `earlier` and `self` (saturating).
    pub fn since(&self, earlier: &CodecStats) -> CodecStats {
        let mut by_codec = BTreeMap::new();
        for (codec, now) in &self.by_codec {
            let base = earlier.by_codec.get(codec).copied().unwrap_or_default();
            let d = CodecReprStats {
                encodes: now.encodes.saturating_sub(base.encodes),
                decodes: now.decodes.saturating_sub(base.decodes),
                dense_bytes: now.dense_bytes.saturating_sub(base.dense_bytes),
                encoded_bytes: now.encoded_bytes.saturating_sub(base.encoded_bytes),
            };
            if d != CodecReprStats::default() {
                by_codec.insert(codec.clone(), d);
            }
        }
        CodecStats { by_codec }
    }

    /// Total encoder input bytes across codecs.
    pub fn dense_bytes(&self) -> u64 {
        self.by_codec.values().map(|s| s.dense_bytes).sum()
    }

    /// Total encoder output bytes across codecs.
    pub fn encoded_bytes(&self) -> u64 {
        self.by_codec.values().map(|s| s.encoded_bytes).sum()
    }
}

/// Per-codec breakdown. BTreeMap so reports iterate deterministically.
static BY_CODEC: Mutex<BTreeMap<String, CodecReprStats>> = Mutex::new(BTreeMap::new());

/// The process-wide codec ledger.
///
/// Like [`CopyCounter`], a namespace over globals: chunk buffers flow across
/// engine worker threads, so the ledger is process-wide and readers diff
/// [`CodecCounter::snapshot`]s with [`CodecStats::since`].
pub struct CodecCounter;

impl CodecCounter {
    /// Record one encode into `repr` (`dense` bytes in, `encoded` out).
    pub fn record_encode(repr: ChunkRepr, dense: usize, encoded: usize) {
        let mut map = BY_CODEC.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map.entry(repr.as_str().to_string()).or_default();
        slot.encodes += 1;
        slot.dense_bytes += dense as u64;
        slot.encoded_bytes += encoded as u64;
    }

    /// Record one decode out of `repr`.
    pub fn record_decode(repr: ChunkRepr) {
        let mut map = BY_CODEC.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(repr.as_str().to_string()).or_default().decodes += 1;
    }

    /// A consistent view of the ledger as of now.
    pub fn snapshot() -> CodecStats {
        let map = BY_CODEC.lock().unwrap_or_else(|e| e.into_inner());
        CodecStats {
            by_codec: map.clone(),
        }
    }
}

/// A compressed element buffer: the in-memory encoded form a
/// [`crate::ChunkBuf`] can hold instead of a dense vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Encoded<T: Element> {
    /// Every element is `value` (bit-pattern equal), `len` elements.
    Const {
        /// The repeated value.
        value: T,
        /// Element count.
        len: usize,
    },
    /// Bit-pattern runs: `(run_length, value)` pairs in buffer order.
    Rle {
        /// The runs; lengths are positive and sum to `len`.
        runs: Vec<(u32, T)>,
        /// Element count.
        len: usize,
    },
}

impl<T: Element> Encoded<T> {
    /// Which representation this is.
    pub fn repr(&self) -> ChunkRepr {
        match self {
            Encoded::Const { .. } => ChunkRepr::Const,
            Encoded::Rle { .. } => ChunkRepr::Rle,
        }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        match self {
            Encoded::Const { len, .. } | Encoded::Rle { len, .. } => *len,
        }
    }

    /// True when the encoded buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded payload size in bytes (the compressed footprint): a length
    /// word, then the value (`Const`) or a count and a value per run
    /// (`Rle`).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            Encoded::Const { .. } => 8 + T::BYTES,
            Encoded::Rle { runs, .. } => 8 + runs.len() * (4 + T::BYTES),
        }
    }

    /// Logical dense size in bytes.
    pub fn dense_bytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Encode `data` as `Const` when it is one run, else as `Rle`, keeping
    /// either only if it is strictly smaller than the dense buffer; `None`
    /// otherwise (noisy flux planes, and buffers too short for a codec's
    /// header to pay off). Pure: no ledger traffic.
    pub fn encode(data: &[T]) -> Option<Encoded<T>> {
        if data.is_empty() {
            return None;
        }
        let runs = run_count(data);
        let dense = data.len() * T::BYTES;
        if runs == 1 && 8 + T::BYTES < dense {
            return Some(Encoded::Const {
                value: data[0],
                len: data.len(),
            });
        }
        if 8 + runs * (4 + T::BYTES) >= dense {
            return None;
        }
        let mut out: Vec<(u32, T)> = Vec::with_capacity(runs);
        let mut cur = data[0];
        let mut cur_key = cur.to_ordered_u64();
        let mut count = 0u32;
        for &v in data {
            let k = v.to_ordered_u64();
            if k == cur_key && count < u32::MAX {
                count += 1;
            } else {
                out.push((count, cur));
                cur = v;
                cur_key = k;
                count = 1;
            }
        }
        out.push((count, cur));
        Some(Encoded::Rle {
            runs: out,
            len: data.len(),
        })
    }

    /// [`Encoded::encode`] with ledger traffic: the encode is recorded in
    /// the [`CodecCounter`] and folded into the [`CopyCounter`] under the
    /// `"codec.encode"` reason (the encoder reads the whole dense buffer
    /// and writes the encoded bytes — that is the data movement charged).
    pub fn encode_counted(data: &[T]) -> Option<Encoded<T>> {
        let enc = Self::encode(data)?;
        CodecCounter::record_encode(enc.repr(), enc.dense_bytes(), enc.encoded_bytes());
        CopyCounter::record("codec.encode", enc.encoded_bytes());
        Some(enc)
    }

    /// Materialize the dense buffer, bit-identical to the encoder input.
    /// Pure: no ledger traffic.
    pub fn decode(&self) -> Vec<T> {
        match self {
            Encoded::Const { value, len } => vec![*value; *len],
            Encoded::Rle { runs, len } => {
                let mut out = Vec::with_capacity(*len);
                for &(count, value) in runs {
                    out.resize(out.len() + count as usize, value);
                }
                out
            }
        }
    }

    /// [`Encoded::decode`] with ledger traffic: recorded in the
    /// [`CodecCounter`] and folded into the [`CopyCounter`] under the
    /// `"codec.decode"` reason (the dense buffer is written out in full).
    pub fn decode_counted(&self) -> Vec<T> {
        CodecCounter::record_decode(self.repr());
        CopyCounter::record("codec.decode", self.dense_bytes());
        self.decode()
    }
}

/// Number of bit-pattern runs in the non-empty `data`.
fn run_count<T: Element>(data: &[T]) -> usize {
    let mut runs = 1usize;
    let mut prev = data[0].to_ordered_u64();
    for v in &data[1..] {
        let k = v.to_ordered_u64();
        if k != prev {
            runs += 1;
            prev = k;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn constant_plane_encodes_const() {
        let data = vec![3.5f64; 1000];
        let enc = Encoded::encode(&data).expect("compressible");
        assert_eq!(enc.repr(), ChunkRepr::Const);
        assert!(enc.encoded_bytes() < 20);
        assert_bits_eq(&enc.decode(), &data);
    }

    #[test]
    fn mostly_constant_plane_encodes_rle() {
        let mut data = vec![0.0f64; 4096];
        data[100] = 7.0;
        data[2000] = 9.0;
        let enc = Encoded::encode(&data).expect("compressible");
        assert_eq!(enc.repr(), ChunkRepr::Rle);
        assert!(enc.encoded_bytes() * 2 < enc.dense_bytes());
        assert_bits_eq(&enc.decode(), &data);
    }

    #[test]
    fn noisy_floats_refuse_to_encode() {
        // A full-range pseudo-random float plane: no codec shrinks it.
        let mut state = 0x9e3779b97f4a7c15u64;
        let data: Vec<f64> = (0..512)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 1e6 - 5e5
            })
            .collect();
        assert_eq!(Encoded::encode(&data), None);
    }

    #[test]
    fn negative_zero_does_not_join_positive_zero_runs() {
        let data = vec![0.0f64, -0.0, 0.0, -0.0];
        if let Some(enc) = Encoded::encode(&data) {
            assert_bits_eq(&enc.decode(), &data);
        }
        // The run detector must see two distinct bit patterns.
        assert_eq!(run_count(&data), 4);
    }

    #[test]
    fn nan_payloads_roundtrip_bitwise() {
        let nan1 = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7ff8_dead_beef_cafe);
        let mut data = vec![nan1; 64];
        data.extend(vec![nan2; 64]);
        let enc = Encoded::encode(&data).expect("two NaN runs compress");
        assert_eq!(enc.repr(), ChunkRepr::Rle);
        assert_bits_eq(&enc.decode(), &data);
    }

    #[test]
    fn empty_buffer_refuses_to_encode() {
        assert_eq!(Encoded::<f64>::encode(&[]), None);
    }

    #[test]
    fn short_constant_buffers_pack_only_when_smaller() {
        // Both codecs store a length word, so one or two f64s (or up to
        // nine bytes) are no larger dense, as `Const` or as a one-run `Rle`.
        for n in 1..=4 {
            if let Some(enc) = Encoded::encode(&vec![3.5f64; n]) {
                assert!(enc.encoded_bytes() < enc.dense_bytes(), "{n} f64s");
            }
        }
        for n in 1..=12 {
            if let Some(enc) = Encoded::encode(&vec![0u8; n]) {
                assert!(enc.encoded_bytes() < enc.dense_bytes(), "{n} bytes");
            }
        }
        assert_eq!(Encoded::encode(&[3.5f64]), None);
        assert_eq!(Encoded::encode(&[3.5f64; 2]), None);
        let three = Encoded::encode(&[3.5f64; 3]).expect("three f64s pack");
        assert_eq!(three.repr(), ChunkRepr::Const);
        assert_eq!(Encoded::encode(&[0u8; 9]), None);
        let ten = Encoded::encode(&[0u8; 10]).expect("ten bytes pack");
        assert_eq!(ten.repr(), ChunkRepr::Const);
    }

    #[test]
    fn counted_paths_hit_both_ledgers() {
        let before_codec = CodecCounter::snapshot();
        let before_copy = CopyCounter::snapshot();
        let data = vec![1.5f64; 256];
        let enc = Encoded::encode_counted(&data).expect("const");
        let dense = enc.decode_counted();
        assert_eq!(dense.len(), 256);
        let dc = CodecCounter::snapshot().since(&before_codec);
        let cc = CopyCounter::snapshot().since(&before_copy);
        let konst = dc.by_codec.get("const").expect("const codec traffic");
        assert_eq!(konst.encodes, 1);
        assert_eq!(konst.decodes, 1);
        assert_eq!(konst.dense_bytes, 256 * 8);
        assert!(konst.encoded_bytes < 32);
        assert!(cc.by_reason.contains_key("codec.encode"));
        assert_eq!(
            cc.by_reason.get("codec.decode").map(|r| r.bytes),
            Some(256 * 8)
        );
    }

    /// Adversarial palette for the roundtrip property: `-0.0` vs `0.0`,
    /// subnormals, NaN payloads, infinities, plus arbitrary bit patterns.
    fn special_f64(pick: u8, bits: u64) -> f64 {
        match pick % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324, // smallest subnormal
            3 => -5e-324,
            4 => f64::MIN_POSITIVE / 2.0, // subnormal
            5 => f64::NAN,
            6 => f64::from_bits(0x7ff8_0000_0000_0042), // NaN payload
            7 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            9 => 1.0,
            10 => -1.0,
            _ => f64::from_bits(bits), // arbitrary bit pattern
        }
    }

    /// Build an adversarial plane: `shape` selects all-constant,
    /// alternating-pair, or arbitrary-mixture layouts over the palette.
    fn adversarial_plane(shape: u8, picks: &[(u8, u64)], n: usize) -> Vec<f64> {
        let value_at = |i: usize| {
            let (p, b) = picks[i % picks.len()];
            special_f64(p, b)
        };
        match shape % 3 {
            0 => vec![value_at(0); n],                      // all-constant
            1 => (0..n).map(|i| value_at(i % 2)).collect(), // alternating
            _ => (0..n).map(value_at).collect(),            // mixture
        }
    }

    proptest! {
        #[test]
        fn f64_roundtrip_is_bitwise_identity(
            shape in any::<u8>(),
            picks in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..16),
            n in 1usize..512,
        ) {
            let data = adversarial_plane(shape, &picks, n);
            if let Some(enc) = Encoded::encode(&data) {
                let back = enc.decode();
                prop_assert_eq!(back.len(), data.len());
                for (x, y) in back.iter().zip(&data) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                // A codec is only chosen when it shrinks the buffer.
                prop_assert!(enc.encoded_bytes() < enc.dense_bytes());
            }
        }

        #[test]
        fn u8_roundtrip_is_identity(data in proptest::collection::vec(any::<u8>(), 1..1024)) {
            if let Some(enc) = Encoded::encode(&data) {
                prop_assert_eq!(enc.decode(), data);
            }
        }

        #[test]
        fn u16_roundtrip_is_identity(data in proptest::collection::vec(0u16..64, 1..1024)) {
            if let Some(enc) = Encoded::encode(&data) {
                prop_assert_eq!(enc.decode(), data);
            }
        }

        #[test]
        fn i64_roundtrip_is_identity(data in proptest::collection::vec(any::<i64>(), 1..256)) {
            if let Some(enc) = Encoded::encode(&data) {
                prop_assert_eq!(enc.decode(), data);
            }
        }
    }
}
