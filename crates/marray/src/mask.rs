use crate::array::NdArray;
use crate::element::Element;
use crate::error::{ArrayError, Result};

/// A boolean mask over an array or over one axis of an array.
///
/// Masks appear in two roles in the use cases:
/// * the per-subject **brain mask** (a 3-D mask applied element-wise to 3-D
///   volumes during denoising), and
/// * the **b0 selector** (`gtab.b0s_mask`: a 1-D mask over the volume axis
///   used by the segmentation step's `compress` call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<bool>,
    dims: Vec<usize>,
}

impl Mask {
    /// Build from raw booleans with a shape.
    pub fn from_vec(dims: &[usize], bits: Vec<bool>) -> Result<Self> {
        let expected: usize = dims.iter().product();
        if expected != bits.len() {
            return Err(ArrayError::BadBufferLen {
                expected,
                got: bits.len(),
            });
        }
        Ok(Mask {
            bits,
            dims: dims.to_vec(),
        })
    }

    /// Build by thresholding an array: `true` where `value > threshold`.
    pub fn threshold<T: Element>(array: &NdArray<T>, threshold: f64) -> Self {
        Mask {
            bits: array
                .data()
                .iter()
                .map(|v| v.to_f64() > threshold)
                .collect(),
            dims: array.dims().to_vec(),
        }
    }

    /// Mask extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Raw booleans in row-major order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Total positions.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of selected (`true`) positions.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of selected positions.
    pub fn fill_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.count() as f64 / self.bits.len() as f64
        }
    }

    /// Selected value at a flat offset.
    #[inline]
    pub fn get_flat(&self, offset: usize) -> bool {
        self.bits[offset]
    }

    /// Positions (flat offsets) where the mask is `true`.
    pub fn selected(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Logical AND with another mask of the same shape.
    pub fn and(&self, other: &Mask) -> Result<Mask> {
        if self.dims != other.dims {
            return Err(ArrayError::ShapeMismatch {
                expected: self.dims.clone(),
                got: other.dims.clone(),
            });
        }
        Ok(Mask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a && b)
                .collect(),
            dims: self.dims.clone(),
        })
    }

    /// Render as a `u8` array (1 = selected), e.g. for serializing to NIfTI.
    // scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
    pub fn to_array(&self) -> NdArray<u8> {
        NdArray::from_vec(&self.dims, self.bits.iter().map(|&b| b as u8).collect())
            .expect("dims/len agree")
    }

    /// Interpret a numeric array as a mask (non-zero = selected).
    pub fn from_array<T: Element>(array: &NdArray<T>) -> Self {
        Mask {
            // scilint: allow(N001, NumPy truthiness semantics - exactly zero means unselected by definition)
            bits: array.data().iter().map(|v| v.to_f64() != 0.0).collect(),
            dims: array.dims().to_vec(),
        }
    }
}

impl<T: Element> NdArray<T> {
    /// Keep the positions along `axis` where `mask` is true — NumPy/SciDB
    /// `compress`. The mask must be 1-D with length equal to the axis extent.
    pub fn compress_axis(&self, mask: &Mask, axis: usize) -> Result<NdArray<T>> {
        if mask.dims().len() != 1 || mask.len() != self.shape().dim(axis) {
            return Err(ArrayError::BadMaskLen {
                expected: self.shape().dim(axis),
                got: mask.len(),
            });
        }
        self.take_axis(axis, &mask.selected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_and_count() {
        let a = NdArray::from_vec(&[2, 2], vec![0.0f64, 1.0, 2.0, 3.0]).unwrap();
        let m = Mask::threshold(&a, 1.5);
        assert_eq!(m.count(), 2);
        assert_eq!(m.fill_fraction(), 0.5);
        assert_eq!(m.selected(), vec![2, 3]);
    }

    #[test]
    fn compress_axis_selects_volumes() {
        // 18 of 288-style selection, shrunk: select volumes {0, 2} of 4.
        let a = NdArray::from_fn(&[2, 2, 4], |ix| ix[2] as f64);
        let m = Mask::from_vec(&[4], vec![true, false, true, false]).unwrap();
        let sel = a.compress_axis(&m, 2).unwrap();
        assert_eq!(sel.dims(), &[2, 2, 2]);
        assert_eq!(sel[&[0, 0, 0]], 0.0);
        assert_eq!(sel[&[0, 0, 1]], 2.0);
    }

    #[test]
    fn compress_axis_len_mismatch() {
        let a = NdArray::<f32>::zeros(&[2, 3]);
        let m = Mask::from_vec(&[2], vec![true, false]).unwrap();
        assert!(a.compress_axis(&m, 1).is_err());
    }

    #[test]
    fn mask_array_roundtrip() {
        let m = Mask::from_vec(&[2, 2], vec![true, false, false, true]).unwrap();
        let arr = m.to_array();
        assert_eq!(Mask::from_array(&arr), m);
    }

    #[test]
    fn and_combines() {
        let a = Mask::from_vec(&[3], vec![true, true, false]).unwrap();
        let b = Mask::from_vec(&[3], vec![true, false, true]).unwrap();
        assert_eq!(a.and(&b).unwrap().bits(), &[true, false, false]);
    }
}
