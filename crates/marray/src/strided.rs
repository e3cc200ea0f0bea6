//! Strided copies without per-element allocation: the walker behind
//! every gather- and scatter-shaped [`crate::NdArray`] operation.
//!
//! An *affine* copy pairs a dense row-major block of extents `dims` with
//! a strided region of another buffer: block index `ix` corresponds to
//! flat offset `base + Σ ix[a]·strides[a]` there. The walker visits the
//! block one innermost row at a time. An odometer over the outer axes
//! (O(rank) state, allocated once per call) yields each row's base
//! offset; the row itself is a single slice copy when its stride is 1 and
//! a tight strided loop otherwise. Axes of extent 1 are dropped and axes
//! contiguous on both sides are fused first, so a full-width crop walks
//! as one row and a volume slice of an `(x, y, z, v)` dataset walks as a
//! single row of `x·y·z` elements at stride `v`.
//!
//! These copies build fresh buffers or write into an already-unshared
//! one: they record nothing in [`crate::CopyCounter`].

/// The rows of one affine region, axes dropped and fused.
struct Rows {
    /// Extents of the outer (non-row) axes.
    outer: Vec<usize>,
    /// Strides of the outer axes.
    outer_strides: Vec<usize>,
    /// Elements per row.
    len: usize,
    /// Stride between a row's elements.
    stride: usize,
}

impl Rows {
    /// Rows of the region of extents `dims` at element `strides`; the
    /// region must not be empty.
    fn new(dims: &[usize], strides: &[usize]) -> Rows {
        let mut outer: Vec<usize> = Vec::with_capacity(dims.len());
        let mut outer_strides: Vec<usize> = Vec::with_capacity(dims.len());
        let (mut len, mut stride) = (1, 1);
        for (&n, &s) in dims.iter().zip(strides) {
            if n == 1 {
                continue;
            }
            if len > 1 && stride == s * n {
                // The current row axis steps exactly over this one: fuse.
                len *= n;
                stride = s;
            } else {
                if len > 1 {
                    outer.push(len);
                    outer_strides.push(stride);
                }
                len = n;
                stride = s;
            }
        }
        Rows {
            outer,
            outer_strides,
            len,
            stride,
        }
    }

    /// Call `row(offset)` with each row's first offset, in row-major order.
    fn for_each(&self, base: usize, mut row: impl FnMut(usize)) {
        let mut ix = vec![0usize; self.outer.len()];
        let mut off = base;
        loop {
            row(off);
            // Advance the odometer; the offset tracks it incrementally.
            let mut a = ix.len();
            loop {
                if a == 0 {
                    return;
                }
                a -= 1;
                ix[a] += 1;
                off += self.outer_strides[a];
                if ix[a] < self.outer[a] {
                    break;
                }
                off -= self.outer_strides[a] * self.outer[a];
                ix[a] = 0;
            }
        }
    }
}

/// Gather the block of extents `dims` whose row-major index `ix` reads
/// `src[base + Σ ix[a]·strides[a]]`, as a fresh row-major buffer.
pub(crate) fn gather<T: Copy>(src: &[T], base: usize, dims: &[usize], strides: &[usize]) -> Vec<T> {
    let total: usize = dims.iter().product();
    let mut out = Vec::with_capacity(total);
    if total == 0 {
        return out;
    }
    let rows = Rows::new(dims, strides);
    let (n, s) = (rows.len, rows.stride);
    rows.for_each(base, |off| {
        if s == 1 {
            out.extend_from_slice(&src[off..off + n]);
        } else {
            out.extend(src[off..=off + (n - 1) * s].iter().step_by(s).copied());
        }
    });
    out
}

/// Scatter the row-major block `src` of extents `dims` into `dst`, block
/// index `ix` landing at `dst[base + Σ ix[a]·strides[a]]` — the inverse
/// of [`gather`].
pub(crate) fn scatter<T: Copy>(
    dst: &mut [T],
    base: usize,
    dims: &[usize],
    strides: &[usize],
    src: &[T],
) {
    if src.is_empty() {
        return;
    }
    let rows = Rows::new(dims, strides);
    let (n, s) = (rows.len, rows.stride);
    let mut runs = src.chunks_exact(n);
    rows.for_each(base, |off| {
        let Some(run) = runs.next() else { return };
        if s == 1 {
            dst[off..off + n].copy_from_slice(run);
        } else {
            for (d, &v) in dst[off..=off + (n - 1) * s].iter_mut().step_by(s).zip(run) {
                *d = v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_axes_fuse_into_one_row() {
        // A full-width crop of a 4×5 buffer: rows 1..3 are one run.
        let r = Rows::new(&[2, 5], &[5, 1]);
        assert_eq!((r.outer.len(), r.len, r.stride), (0, 10, 1));
        // A volume slice of (2, 3, 4, v=6): one row at stride 6.
        let r = Rows::new(&[2, 3, 4], &[72, 24, 6]);
        assert_eq!((r.outer.len(), r.len, r.stride), (0, 24, 6));
        // A narrow crop keeps its outer axis; unit axes vanish.
        let r = Rows::new(&[1, 3, 2], &[40, 5, 1]);
        assert_eq!((r.outer, r.len, r.stride), (vec![3], 2, 1));
        // A scalar is one row of one element.
        let r = Rows::new(&[], &[]);
        assert_eq!((r.outer.len(), r.len), (0, 1));
    }

    #[test]
    fn gather_and_scatter_are_inverse() {
        let src: Vec<u32> = (0..60).collect();
        // Transpose-like walk with a non-unit row stride.
        let g = gather(&src, 7, &[3, 4], &[1, 12]);
        assert_eq!(g, vec![7, 19, 31, 43, 8, 20, 32, 44, 9, 21, 33, 45]);
        let mut dst = vec![0u32; 60];
        scatter(&mut dst, 7, &[3, 4], &[1, 12], &g);
        for (i, &v) in dst.iter().enumerate() {
            let hit = g.contains(&(i as u32));
            assert_eq!(v, if hit { i as u32 } else { 0 });
        }
        assert!(gather(&src, 0, &[3, 0], &[1, 1]).is_empty());
    }
}
