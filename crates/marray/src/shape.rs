use crate::error::{ArrayError, Result};

/// The shape of a dense, row-major (C-order) N-dimensional array.
///
/// Strides are derived, not stored independently: the last axis is always
/// contiguous. `Shape` carries all index arithmetic so that array code and
/// hand-rolled kernels share a single implementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from axis extents. A zero-rank shape describes a scalar.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Axis extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (1 for a scalar shape).
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the shape contains no elements (some extent is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent along `axis`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index. Panics in debug builds on OOB.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len());
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            debug_assert!(ix < d, "index {ix} out of bounds for axis {i} (extent {d})");
            off = off * d + ix;
        }
        off
    }

    /// Checked linear offset of a multi-index.
    pub fn offset_checked(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(&ix, &d)| ix >= d) {
            return Err(ArrayError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.dims.clone(),
            });
        }
        Ok(self.offset(index))
    }

    /// Inverse of [`Shape::offset`]: the multi-index of a linear offset.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        let mut index = vec![0; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            let d = self.dims[i];
            index[i] = offset % d;
            offset /= d;
        }
        index
    }

    /// Shape with `axis` removed (the result of reducing along it).
    pub fn without_axis(&self, axis: usize) -> Result<Shape> {
        if axis >= self.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let mut dims = self.dims.clone();
        dims.remove(axis);
        Ok(Shape { dims })
    }

    /// Shape with the extent of `axis` replaced by `extent`.
    pub fn with_axis(&self, axis: usize, extent: usize) -> Result<Shape> {
        if axis >= self.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let mut dims = self.dims.clone();
        dims[axis] = extent;
        Ok(Shape { dims })
    }

    /// Iterate over all multi-indices in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.clone(),
            next: vec![0; self.dims.len()],
            done: self.is_empty(),
        }
    }
}

/// Row-major iterator over every multi-index of a [`Shape`].
pub struct IndexIter {
    shape: Shape,
    next: Vec<usize>,
    done: bool,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let current = self.next.clone();
        // Advance like an odometer, in place; a carry out of axis 0 ends
        // the walk.
        self.done = true;
        for (i, &d) in self.shape.dims.iter().enumerate().rev() {
            self.next[i] += 1;
            if self.next[i] < d {
                self.done = false;
                break;
            }
            self.next[i] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.len() {
            let ix = s.unravel(off);
            assert_eq!(s.offset(&ix), off);
        }
    }

    #[test]
    fn indices_cover_all_offsets_in_order() {
        let s = Shape::new(&[2, 2, 3]);
        let offs: Vec<usize> = s.indices().map(|ix| s.offset(&ix)).collect();
        assert_eq!(offs, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.indices().count(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn empty_shape_has_no_indices() {
        let s = Shape::new(&[3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.indices().count(), 0);
    }

    #[test]
    fn without_and_with_axis() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.without_axis(1).unwrap().dims(), &[4, 6]);
        assert_eq!(s.with_axis(2, 9).unwrap().dims(), &[4, 5, 9]);
        assert!(s.without_axis(3).is_err());
    }

    #[test]
    fn offset_checked_rejects_oob() {
        let s = Shape::new(&[2, 2]);
        assert!(s.offset_checked(&[1, 2]).is_err());
        assert!(s.offset_checked(&[1]).is_err());
        assert_eq!(s.offset_checked(&[1, 1]).unwrap(), 3);
    }
}
