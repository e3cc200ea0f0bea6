use crate::chunkstore::{ChunkBuf, ChunkView};
use crate::element::Element;
use crate::error::{ArrayError, Result};
use crate::shape::Shape;
use crate::strided;

/// A dense, row-major N-dimensional array over a shared chunk buffer.
///
/// This is the in-memory payload type flowing through every engine in the
/// workspace: NIfTI volumes, FITS planes, masks, tensors, and blobs are all
/// `NdArray<f32>` / `NdArray<f64>` / `NdArray<u8>` under the hood.
///
/// Storage is a reference-counted [`ChunkBuf`]: `clone()` shares the bytes
/// (a refcount bump; the clone starts unpinned), and mutation is
/// copy-on-write — mutating accessors deep-copy only when the buffer is
/// shared, and every deep copy is recorded by [`crate::CopyCounter`].
/// Use [`NdArray::materialize`] when a copy is architecturally required
/// regardless of sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray<T: Element> {
    shape: Shape,
    data: ChunkBuf<T>,
}

impl<T: Element> NdArray<T> {
    /// Internal: wrap a freshly built buffer (no copy, no counting).
    #[inline]
    fn from_parts(shape: Shape, data: Vec<T>) -> Self {
        NdArray {
            shape,
            data: ChunkBuf::from_vec(data),
        }
    }

    /// Internal: the raw element slice.
    #[inline]
    fn d(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Array of `T::ZERO` with the given dims.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self::from_parts(shape, vec![T::ZERO; len])
    }

    /// Array filled with `value`.
    pub fn full(dims: &[usize], value: T) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self::from_parts(shape, vec![value; len])
    }

    /// Array built by evaluating `f` at every multi-index (row-major order).
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(f(&ix));
        }
        Self::from_parts(shape, data)
    }

    /// Wrap an existing buffer. Fails if the length does not match the shape.
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(ArrayError::BadBufferLen {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(Self::from_parts(shape, data))
    }

    /// The array's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents (shorthand for `shape().dims()`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major element buffer.
    #[inline]
    pub fn data(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Mutable raw row-major element buffer.
    ///
    /// Copy-on-write: free when this array is the sole owner of its buffer,
    /// otherwise a deep copy recorded under reason `"cow"`.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.make_mut("cow")
    }

    /// Consume the array, returning its buffer.
    ///
    /// Free when this array is the sole owner of its buffer, otherwise a
    /// deep copy recorded under reason `"unshare"`.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_vec("unshare")
    }

    /// The shared buffer behind this array.
    #[inline]
    pub fn buf(&self) -> &ChunkBuf<T> {
        &self.data
    }

    /// True when `self` and `other` share the same underlying allocation —
    /// the property the zero-copy data plane preserves across engine
    /// boundaries.
    pub fn shares_buffer(&self, other: &NdArray<T>) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// An explicit, always-counted deep copy of this array under `reason`.
    ///
    /// The sanctioned escape hatch for engine boundaries whose architectural
    /// contract requires a private copy (e.g. the SciDB analog's chunked
    /// rewrite); accidental copies should share instead.
    pub fn materialize(&self, reason: &str) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.deep_copy(reason),
        }
    }

    /// Re-encode this array's buffer into the smallest compressed
    /// representation (see [`crate::codec`]), when a codec actually
    /// shrinks it and the global [`crate::CompressMode`] allows it;
    /// otherwise a cheap handle clone. Reads through [`NdArray::data`]
    /// keep working transparently (lazy shared decode); mutation
    /// materializes a private dense buffer (COW).
    pub fn compressed(&self) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.compressed(),
        }
    }

    /// Place this array's buffer under [`crate::MemoryGovernor`]
    /// management (see [`ChunkBuf::govern`]): the governor may spill the
    /// bytes to disk under budget pressure, and the next read reloads
    /// them bit-exactly. No copy; the returned array starts unpinned.
    pub fn govern(&self) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.govern(),
        }
    }

    /// Where this array's buffer currently lives (always
    /// [`crate::Residency::Resident`] for non-governed arrays).
    pub fn residency(&self) -> crate::Residency {
        self.data.residency()
    }

    /// Drop this handle's pin on a governed buffer, making it spillable
    /// again without dropping the handle (see [`ChunkBuf::release`]);
    /// the next [`NdArray::data`] re-pins, reloading if the buffer
    /// spilled in the meantime. No-op for non-governed arrays. Streaming
    /// consumers call this between chunks so their working set, not
    /// their whole traversal history, is what counts against the budget.
    pub fn release(&mut self) {
        self.data.release();
    }

    /// The stored representation of this array's buffer.
    pub fn repr(&self) -> crate::ChunkRepr {
        self.data.repr()
    }

    /// The compressed form, when the buffer holds one — run-consuming
    /// kernels branch on this to do run-level arithmetic instead of
    /// decoding to per-pixel data.
    pub fn encoded(&self) -> Option<&crate::Encoded<T>> {
        self.data.encoded()
    }

    /// Bytes the stored representation occupies: equals [`NdArray::nbytes`]
    /// for dense arrays, the encoded footprint for compressed ones — the
    /// volume that actually crosses an engine boundary carrying this array.
    pub fn stored_nbytes(&self) -> usize {
        self.data.stored_nbytes()
    }

    /// A zero-copy view of `len` contiguous row-major elements starting at
    /// flat offset `start` — the slab handle partitioners hand to workers
    /// instead of `data()[lo..hi].to_vec()`.
    pub fn slice_view(&self, start: usize, len: usize) -> ChunkView<T> {
        self.data.view(start, len)
    }

    /// Number of elements in one *slab*: the contiguous row-major run of
    /// all elements sharing one index along axis 0. This is the natural
    /// partition unit for data-parallel kernels (`parexec`): slab
    /// boundaries never split an inner row, so per-slab work touches a
    /// contiguous buffer range.
    ///
    /// For a rank-0 or rank-1 array the slab is a single element.
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.shape.dims().iter().skip(1).product::<usize>().max(1)
    }

    /// Number of slabs along axis 0 (`dims()[0]`, or the element count for
    /// rank ≤ 1).
    #[inline]
    pub fn num_slabs(&self) -> usize {
        if self.shape.rank() <= 1 {
            self.data.len()
        } else {
            self.shape.dim(0)
        }
    }

    /// Borrow slab `i` (the rank-(N-1) sub-array at axis-0 index `i`) as a
    /// contiguous slice.
    #[inline]
    pub fn slab(&self, i: usize) -> &[T] {
        let len = self.slab_len();
        &self.d()[i * len..(i + 1) * len]
    }

    /// Iterate the slabs along axis 0 as contiguous slices.
    pub fn slabs(&self) -> std::slice::Chunks<'_, T> {
        self.d().chunks(self.slab_len())
    }

    /// Iterate the slabs along axis 0 as disjoint mutable slices — the
    /// handles a data-parallel runtime distributes across workers.
    pub fn slabs_mut(&mut self) -> std::slice::ChunksMut<'_, T> {
        let len = self.slab_len();
        self.data.make_mut("cow").chunks_mut(len)
    }

    /// Size of the array payload in bytes when serialized densely.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * T::BYTES
    }

    /// Checked element access.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        Ok(self.d()[self.shape.offset_checked(index)?])
    }

    /// Checked element write.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let off = self.shape.offset_checked(index)?;
        self.data.make_mut("cow")[off] = value;
        Ok(())
    }

    /// Reshape to `dims` without moving data. Element count must match.
    pub fn reshape(self, dims: &[usize]) -> Result<Self> {
        let new = Shape::new(dims);
        if new.len() != self.shape.len() {
            return Err(ArrayError::BadReshape {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(NdArray {
            shape: new,
            data: self.data,
        })
    }

    /// Flatten to rank 1.
    pub fn flatten(self) -> Self {
        let len = self.data.len();
        NdArray {
            shape: Shape::new(&[len]),
            data: self.data,
        }
    }

    /// Extract the rank-(N-1) sub-array at position `index` along `axis`.
    ///
    /// E.g. `slice_axis(3, k)` on a 4-D dMRI dataset extracts 3-D volume `k`.
    pub fn slice_axis(&self, axis: usize, index: usize) -> Result<Self> {
        if axis >= self.shape.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.shape.rank(),
            });
        }
        if index >= self.shape.dim(axis) {
            return Err(ArrayError::IndexOutOfBounds {
                index: vec![index],
                dims: vec![self.shape.dim(axis)],
            });
        }
        let out_shape = self.shape.without_axis(axis)?;
        let mut strides = self.shape.strides();
        let base = index * strides.remove(axis);
        Ok(self.gather(out_shape, base, &strides))
    }

    /// Select a subset of positions along `axis` (NumPy `take`).
    pub fn take_axis(&self, axis: usize, positions: &[usize]) -> Result<Self> {
        if axis >= self.shape.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.shape.rank(),
            });
        }
        for &p in positions {
            if p >= self.shape.dim(axis) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![p],
                    dims: vec![self.shape.dim(axis)],
                });
            }
        }
        let out_shape = self.shape.with_axis(axis, positions.len())?;
        let mut data = Vec::with_capacity(out_shape.len());
        if !out_shape.is_empty() {
            // Every selected position is one contiguous run of the axes
            // after `axis`, repeated once per index of the axes before it.
            let inner: usize = self.shape.dims()[axis + 1..].iter().product();
            for block in self.d().chunks_exact(self.shape.dim(axis) * inner) {
                for &p in positions {
                    data.extend_from_slice(&block[p * inner..(p + 1) * inner]);
                }
            }
        }
        Ok(Self::from_parts(out_shape, data))
    }

    /// Extract the hyper-rectangle `[starts[i], starts[i] + dims[i])` on each
    /// axis (SciDB `between` / `subarray`).
    pub fn subarray(&self, starts: &[usize], dims: &[usize]) -> Result<Self> {
        if starts.len() != self.shape.rank() || dims.len() != self.shape.rank() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: dims.to_vec(),
            });
        }
        for (a, (&s0, &d)) in starts.iter().zip(dims).enumerate() {
            if s0 + d > self.shape.dim(a) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![s0 + d],
                    dims: vec![self.shape.dim(a)],
                });
            }
        }
        let strides = self.shape.strides();
        let base = starts.iter().zip(&strides).map(|(&s0, &s)| s0 * s).sum();
        Ok(self.gather(Shape::new(dims), base, &strides))
    }

    /// Write `patch` into this array at origin `starts` (inverse of
    /// [`NdArray::subarray`]).
    pub fn write_subarray(&mut self, starts: &[usize], patch: &NdArray<T>) -> Result<()> {
        if starts.len() != self.shape.rank() || patch.shape.rank() != self.shape.rank() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: patch.shape.dims().to_vec(),
            });
        }
        for (a, &s0) in starts.iter().enumerate() {
            if s0 + patch.shape.dim(a) > self.shape.dim(a) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![s0 + patch.shape.dim(a)],
                    dims: vec![self.shape.dim(a)],
                });
            }
        }
        let strides = self.shape.strides();
        let base = starts.iter().zip(&strides).map(|(&s0, &s)| s0 * s).sum();
        let dst = self.data.make_mut("cow");
        if !patch.is_empty() {
            strided::scatter(dst, base, patch.dims(), &strides, patch.d());
        }
        Ok(())
    }

    /// Concatenate arrays along `axis`. All other extents must agree.
    // scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
    pub fn concat(parts: &[&NdArray<T>], axis: usize) -> Result<Self> {
        let first = parts.first().expect("concat of zero arrays");
        let rank = first.shape.rank();
        if axis >= rank {
            return Err(ArrayError::AxisOutOfRange { axis, rank });
        }
        let mut total = 0;
        for p in parts {
            for a in 0..rank {
                if a != axis && p.shape.dim(a) != first.shape.dim(a) {
                    return Err(ArrayError::ShapeMismatch {
                        expected: first.shape.dims().to_vec(),
                        got: p.shape.dims().to_vec(),
                    });
                }
            }
            total += p.shape.dim(axis);
        }
        let out_shape = first.shape.with_axis(axis, total)?;
        let mut out = NdArray::zeros(out_shape.dims());
        let mut cursor = 0;
        let mut starts = vec![0usize; rank];
        for p in parts {
            starts[axis] = cursor;
            out.write_subarray(&starts, p)?;
            cursor += p.shape.dim(axis);
        }
        Ok(out)
    }

    /// Permute the axes: `perm[i]` names the source axis that becomes
    /// output axis `i` (NumPy `transpose`). Produces a contiguous copy.
    pub fn permute_axes(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.shape.rank();
        let mut seen = vec![false; rank];
        let valid = perm.len() == rank
            && perm.iter().all(|&a| {
                if a >= rank || seen[a] {
                    false
                } else {
                    seen[a] = true;
                    true
                }
            });
        if !valid {
            return Err(ArrayError::ShapeMismatch {
                expected: (0..rank).collect(),
                got: perm.to_vec(),
            });
        }
        let out_dims: Vec<usize> = perm.iter().map(|&a| self.shape.dim(a)).collect();
        let strides = self.shape.strides();
        let out_strides: Vec<usize> = perm.iter().map(|&a| strides[a]).collect();
        Ok(self.gather(Shape::new(&out_dims), 0, &out_strides))
    }

    /// Internal: the array of `shape` whose row-major index `ix` reads
    /// this array's element `base + Σ ix[a]·strides[a]` (an affine gather,
    /// see [`crate::strided`]). The source is read only for a non-empty
    /// result, so an empty one decodes, pins and records nothing.
    fn gather(&self, shape: Shape, base: usize, strides: &[usize]) -> Self {
        let data = if shape.is_empty() {
            Vec::new()
        } else {
            strided::gather(self.d(), base, shape.dims(), strides)
        };
        Self::from_parts(shape, data)
    }

    /// Apply `f` to every element, producing a new array.
    pub fn map<U: Element>(&self, mut f: impl FnMut(T) -> U) -> NdArray<U> {
        NdArray {
            shape: self.shape.clone(),
            data: ChunkBuf::from_vec(self.d().iter().map(|&v| f(v)).collect()),
        }
    }

    /// Apply `f` in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in self.data.make_mut("cow").iter_mut() {
            *v = f(*v);
        }
    }

    /// Combine two same-shaped arrays element-wise.
    pub fn zip_with<U: Element, V: Element>(
        &self,
        other: &NdArray<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Result<NdArray<V>> {
        if self.shape.dims() != other.shape.dims() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: other.shape.dims().to_vec(),
            });
        }
        Ok(NdArray {
            shape: self.shape.clone(),
            data: ChunkBuf::from_vec(
                self.d()
                    .iter()
                    .zip(other.d())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        })
    }

    /// Convert every element to another element type via `f64`.
    pub fn cast<U: Element>(&self) -> NdArray<U> {
        self.map(|v| U::from_f64(v.to_f64()))
    }
}

impl<T: Element> std::ops::Index<&[usize]> for NdArray<T> {
    type Output = T;
    #[inline]
    fn index(&self, index: &[usize]) -> &T {
        &self.d()[self.shape.offset(index)]
    }
}

impl<T: Element> std::ops::IndexMut<&[usize]> for NdArray<T> {
    #[inline]
    fn index_mut(&mut self, index: &[usize]) -> &mut T {
        let off = self.shape.offset(index);
        &mut self.data.make_mut("cow")[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: &[usize]) -> NdArray<f64> {
        let mut n = 0.0;
        NdArray::from_fn(dims, |_| {
            n += 1.0;
            n - 1.0
        })
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(NdArray::from_vec(&[2, 3], vec![0.0f32; 6]).is_ok());
        assert!(NdArray::from_vec(&[2, 3], vec![0.0f32; 5]).is_err());
    }

    #[test]
    fn slice_axis_last() {
        let a = iota(&[2, 3]);
        let row = a.slice_axis(0, 1).unwrap();
        assert_eq!(row.data(), &[3.0, 4.0, 5.0]);
        let col = a.slice_axis(1, 2).unwrap();
        assert_eq!(col.data(), &[2.0, 5.0]);
    }

    #[test]
    fn slice_axis_4d_volume() {
        // 4-D like dMRI data: x,y,z,volume — slicing axis 3 extracts a volume.
        let a = NdArray::from_fn(&[2, 2, 2, 3], |ix| {
            (ix[3] * 1000 + ix[0] * 4 + ix[1] * 2 + ix[2]) as f64
        });
        let vol = a.slice_axis(3, 2).unwrap();
        assert_eq!(vol.dims(), &[2, 2, 2]);
        for (off, &v) in vol.data().iter().enumerate() {
            assert_eq!(v, 2000.0 + off as f64);
        }
    }

    #[test]
    fn take_axis_selects_positions() {
        let a = iota(&[2, 4]);
        let t = a.take_axis(1, &[0, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 4.0, 7.0]);
    }

    #[test]
    fn subarray_and_write_roundtrip() {
        let a = iota(&[4, 5]);
        let sub = a.subarray(&[1, 2], &[2, 3]).unwrap();
        assert_eq!(sub.dims(), &[2, 3]);
        assert_eq!(sub[&[0, 0]], a[&[1, 2]]);
        assert_eq!(sub[&[1, 2]], a[&[2, 4]]);

        let mut b = NdArray::<f64>::zeros(&[4, 5]);
        b.write_subarray(&[1, 2], &sub).unwrap();
        assert_eq!(b[&[1, 2]], a[&[1, 2]]);
        assert_eq!(b[&[0, 0]], 0.0);
    }

    #[test]
    fn subarray_oob_is_error() {
        let a = iota(&[4, 5]);
        assert!(a.subarray(&[3, 0], &[2, 5]).is_err());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = iota(&[2, 2]);
        let b = a.map(|v| v + 10.0);
        let c0 = NdArray::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.dims(), &[4, 2]);
        assert_eq!(c0[&[2, 0]], 10.0);
        let c1 = NdArray::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.dims(), &[2, 4]);
        assert_eq!(c1[&[0, 2]], 10.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = iota(&[2, 2]);
        let b = iota(&[2, 3]);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn reshape_and_flatten() {
        let a = iota(&[2, 6]);
        let r = a.clone().reshape(&[3, 4]).unwrap();
        assert_eq!(r.dims(), &[3, 4]);
        assert_eq!(r.data(), a.data());
        assert!(a.clone().reshape(&[5, 2]).is_err());
        assert_eq!(a.flatten().dims(), &[12]);
    }

    #[test]
    fn cast_f32_u8() {
        let a = NdArray::from_vec(&[3], vec![0.2f32, 1.0, 250.7]).unwrap();
        let b: NdArray<u8> = a.cast();
        assert_eq!(b.data(), &[0u8, 1, 250]);
    }

    #[test]
    fn permute_axes_transposes() {
        let a = iota(&[2, 3]);
        let t = a.permute_axes(&[1, 0]).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(a[&[r, c][..]], t[&[c, r][..]]);
            }
        }
        // Identity permutation is a no-op copy.
        assert_eq!(a.permute_axes(&[0, 1]).unwrap(), a);
    }

    #[test]
    fn permute_axes_moves_volume_axis_first() {
        // The TF workaround shape: (x,y,z,v) → (v,x,y,z).
        let a = NdArray::from_fn(&[2, 3, 4, 5], |ix| {
            (ix[0] * 1000 + ix[1] * 100 + ix[2] * 10 + ix[3]) as f64
        });
        let t = a.permute_axes(&[3, 0, 1, 2]).unwrap();
        assert_eq!(t.dims(), &[5, 2, 3, 4]);
        assert_eq!(t[&[4, 1, 2, 3][..]], a[&[1, 2, 3, 4][..]]);
    }

    #[test]
    fn permute_axes_rejects_bad_perms() {
        let a = iota(&[2, 3]);
        assert!(a.permute_axes(&[0]).is_err());
        assert!(a.permute_axes(&[0, 0]).is_err());
        assert!(a.permute_axes(&[0, 2]).is_err());
    }

    #[test]
    fn slab_views_partition_axis0() {
        let a = iota(&[3, 2, 2]);
        assert_eq!(a.slab_len(), 4);
        assert_eq!(a.num_slabs(), 3);
        assert_eq!(a.slab(1), &[4.0, 5.0, 6.0, 7.0]);
        let collected: Vec<&[f64]> = a.slabs().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], a.slab(2));
        // Mutable slabs are disjoint and cover the whole buffer.
        let mut b = iota(&[3, 2, 2]);
        for (i, slab) in b.slabs_mut().enumerate() {
            for v in slab.iter_mut() {
                *v = i as f64;
            }
        }
        assert_eq!(b.slab(0), &[0.0; 4]);
        assert_eq!(b.slab(2), &[2.0; 4]);
    }

    #[test]
    fn slab_views_rank1_are_single_elements() {
        let a = iota(&[5]);
        assert_eq!(a.slab_len(), 1);
        assert_eq!(a.num_slabs(), 5);
        assert_eq!(a.slab(3), &[3.0]);
    }

    #[test]
    fn nbytes_accounts_for_type() {
        assert_eq!(NdArray::<f32>::zeros(&[10]).nbytes(), 40);
        assert_eq!(NdArray::<f64>::zeros(&[10]).nbytes(), 80);
        assert_eq!(NdArray::<u8>::zeros(&[10]).nbytes(), 10);
    }
}
