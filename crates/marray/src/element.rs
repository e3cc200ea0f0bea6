/// Scalar element types storable in an [`crate::NdArray`].
///
/// The trait bundles the conversions and arithmetic identities the library's
/// generic reductions need. It is implemented for the numeric types the
/// image-analytics workloads use: `f32` (image payloads), `f64`
/// (accumulators and model fits), `u8` (masks), and `i32`/`i64`/`u16`
/// (labels and counts).
pub trait Element: Copy + PartialOrd + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Widen to `f64` for exact-ish accumulation.
    fn to_f64(self) -> f64;
    /// Narrow from `f64`, saturating / truncating as the type requires.
    fn from_f64(v: f64) -> Self;
    /// Number of bytes one element occupies in serialized form.
    const BYTES: usize = size_of::<Self>();

    /// An order-preserving bijection into `u64`: `a <= b` (total order)
    /// iff `a.to_ordered_u64() <= b.to_ordered_u64()`, and
    /// [`Element::from_ordered_u64`] inverts it exactly — every bit
    /// pattern round-trips, including NaN payloads, `-0.0`, and
    /// subnormals. The codec layer keys run detection on this mapping so
    /// that encode→decode reproduces the original buffer bit for bit
    /// (plain `==` would conflate `0.0`/`-0.0` and reject NaN runs), and
    /// spill records store values as these keys.
    fn to_ordered_u64(self) -> u64;
    /// Exact inverse of [`Element::to_ordered_u64`].
    fn from_ordered_u64(k: u64) -> Self;
}

macro_rules! impl_element_unsigned {
    ($($t:ty => $zero:expr, $one:expr);* $(;)?) => {
        $(impl Element for $t {
            const ZERO: Self = $zero;
            const ONE: Self = $one;
            #[inline]
            fn to_f64(self) -> f64 { self as f64 }
            #[inline]
            fn from_f64(v: f64) -> Self { v as $t }
            #[inline]
            fn to_ordered_u64(self) -> u64 { self as u64 }
            #[inline]
            fn from_ordered_u64(k: u64) -> Self { k as $t }
        })*
    };
}

macro_rules! impl_element_signed {
    ($($t:ty : $u:ty => $flip:expr);* $(;)?) => {
        $(impl Element for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline]
            fn to_f64(self) -> f64 { self as f64 }
            #[inline]
            fn from_f64(v: f64) -> Self { v as $t }
            #[inline]
            fn to_ordered_u64(self) -> u64 {
                // Flip the sign bit: maps iN's order onto uN's.
                ((self as $u) ^ $flip) as u64
            }
            #[inline]
            fn from_ordered_u64(k: u64) -> Self {
                ((k as $u) ^ $flip) as $t
            }
        })*
    };
}

impl_element_unsigned! {
    u8  => 0, 1;
    u16 => 0, 1;
    u32 => 0, 1;
    usize => 0, 1;
}

impl_element_signed! {
    i32 : u32 => 0x8000_0000u32;
    i64 : u64 => 0x8000_0000_0000_0000u64;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    /// The classic total-order trick: negatives have their bits inverted
    /// (reversing their descending bit order), non-negatives get the sign
    /// bit set (placing them above every negative).
    #[inline]
    fn to_ordered_u64(self) -> u64 {
        let b = self.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | 0x8000_0000_0000_0000
        }
    }
    #[inline]
    fn from_ordered_u64(k: u64) -> Self {
        let b = if k >> 63 == 1 {
            k & 0x7fff_ffff_ffff_ffff
        } else {
            !k
        };
        f64::from_bits(b)
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_ordered_u64(self) -> u64 {
        let b = self.to_bits();
        let k = if b >> 31 == 1 { !b } else { b | 0x8000_0000 };
        k as u64
    }
    #[inline]
    fn from_ordered_u64(k: u64) -> Self {
        let k = k as u32;
        let b = if k >> 31 == 1 { k & 0x7fff_ffff } else { !k };
        f32::from_bits(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Element>(v: T) -> T {
        T::from_ordered_u64(v.to_ordered_u64())
    }

    #[test]
    fn f64_ordered_bits_roundtrip_exactly() {
        for v in [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001), // NaN payload
        ] {
            assert_eq!(v.to_bits(), roundtrip(v).to_bits(), "{v:?}");
        }
    }

    #[test]
    fn f64_ordered_bits_preserve_order() {
        let mut vals = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            2.5,
            f64::MAX,
            f64::INFINITY,
        ];
        vals.sort_unstable_by(f64::total_cmp);
        for w in vals.windows(2) {
            assert!(
                w[0].to_ordered_u64() <= w[1].to_ordered_u64(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn integer_ordered_bits_roundtrip_and_order() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(v, roundtrip(v));
        }
        assert!((-3i64).to_ordered_u64() < 0i64.to_ordered_u64());
        assert!(0i32.to_ordered_u64() < 7i32.to_ordered_u64());
        for v in [0u8, 1, 255] {
            assert_eq!(v, roundtrip(v));
        }
        for v in [0u16, 9, u16::MAX] {
            assert_eq!(v, roundtrip(v));
        }
        assert_eq!(42usize, roundtrip(42usize));
    }

    #[test]
    fn f32_ordered_bits_roundtrip() {
        for v in [0.0f32, -0.0, 1.5, -1.5, f32::NAN, f32::INFINITY] {
            assert_eq!(v.to_bits(), roundtrip(v).to_bits());
        }
        assert!((-1.0f32).to_ordered_u64() < 1.0f32.to_ordered_u64());
    }
}
