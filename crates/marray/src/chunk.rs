use crate::array::NdArray;
use crate::element::Element;
use crate::error::{ArrayError, Result};
use crate::shape::Shape;

/// A regular chunking of an N-dimensional extent — the storage model of the
/// SciDB-analog array engine.
///
/// The extent is divided into a grid of chunks of `chunk_dims` (edge chunks
/// may be smaller). Chunks are identified by their grid coordinates
/// ([`ChunkIx`]) and enumerate in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGrid {
    array_dims: Vec<usize>,
    chunk_dims: Vec<usize>,
    grid_dims: Vec<usize>,
}

/// Grid coordinates of one chunk.
pub type ChunkIx = Vec<usize>;

impl ChunkGrid {
    /// Build a grid over `array_dims` with chunks of `chunk_dims`.
    pub fn new(array_dims: &[usize], chunk_dims: &[usize]) -> Result<Self> {
        if array_dims.len() != chunk_dims.len() || chunk_dims.contains(&0) {
            return Err(ArrayError::ShapeMismatch {
                expected: array_dims.to_vec(),
                got: chunk_dims.to_vec(),
            });
        }
        let grid_dims = array_dims
            .iter()
            .zip(chunk_dims)
            .map(|(&a, &c)| a.div_ceil(c))
            .collect();
        Ok(ChunkGrid {
            array_dims: array_dims.to_vec(),
            chunk_dims: chunk_dims.to_vec(),
            grid_dims,
        })
    }

    /// Extents of the chunked array.
    pub fn array_dims(&self) -> &[usize] {
        &self.array_dims
    }

    /// Nominal chunk extents.
    pub fn chunk_dims(&self) -> &[usize] {
        &self.chunk_dims
    }

    /// Extents of the chunk grid itself.
    pub fn grid_dims(&self) -> &[usize] {
        &self.grid_dims
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.grid_dims.iter().product()
    }

    /// Origin (element coordinates) of chunk `ix`.
    pub fn chunk_origin(&self, ix: &[usize]) -> Vec<usize> {
        ix.iter()
            .zip(&self.chunk_dims)
            .map(|(&g, &c)| g * c)
            .collect()
    }

    /// Actual extents of chunk `ix` (edge chunks are clipped).
    pub fn chunk_extent(&self, ix: &[usize]) -> Vec<usize> {
        ix.iter()
            .zip(&self.chunk_dims)
            .zip(&self.array_dims)
            .map(|((&g, &c), &a)| c.min(a - g * c))
            .collect()
    }

    /// Iterate all chunk grid coordinates in row-major order.
    pub fn chunk_indices(&self) -> impl Iterator<Item = ChunkIx> {
        Shape::new(&self.grid_dims).indices()
    }

    /// The chunk grid coordinates containing element coordinates `pos`.
    pub fn chunk_of(&self, pos: &[usize]) -> ChunkIx {
        pos.iter()
            .zip(&self.chunk_dims)
            .map(|(&p, &c)| p / c)
            .collect()
    }

    /// Chunk grid coordinates intersecting the hyper-rectangle
    /// `[starts, starts+dims)` — used to plan chunk-misaligned selections.
    pub fn chunks_overlapping(&self, starts: &[usize], dims: &[usize]) -> Vec<ChunkIx> {
        let lo = self.chunk_of(starts);
        let hi: Vec<usize> = starts
            .iter()
            .zip(dims)
            .zip(&self.chunk_dims)
            .map(|((&s, &d), &c)| if d == 0 { s / c } else { (s + d - 1) / c })
            .collect();
        let ranges: Vec<usize> = lo.iter().zip(&hi).map(|(&l, &h)| h - l + 1).collect();
        Shape::new(&ranges)
            .indices()
            .map(|rel| rel.iter().zip(&lo).map(|(&r, &l)| r + l).collect())
            .collect()
    }

    /// Split an array into its chunks, in row-major grid order.
    pub fn split<T: Element>(&self, array: &NdArray<T>) -> Result<Vec<(ChunkIx, NdArray<T>)>> {
        if array.dims() != self.array_dims.as_slice() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.array_dims.clone(),
                got: array.dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity(self.num_chunks());
        for ix in self.chunk_indices() {
            let origin = self.chunk_origin(&ix);
            let extent = self.chunk_extent(&ix);
            out.push((ix, array.subarray(&origin, &extent)?));
        }
        Ok(out)
    }

    /// Reassemble chunks (in any order) into the full array.
    ///
    /// Governed chunks are read through a temporary handle so the
    /// caller's stored handles stay unpinned (and spillable) afterwards.
    pub fn assemble<T: Element>(&self, chunks: &[(ChunkIx, NdArray<T>)]) -> Result<NdArray<T>> {
        let mut out = NdArray::zeros(&self.array_dims);
        for (ix, chunk) in chunks {
            let origin = self.chunk_origin(ix);
            // scilint: allow(F003, a refcount bump whose pin dies with the temporary, leaving the stored chunk spillable)
            let reader = chunk.clone();
            out.write_subarray(&origin, &reader)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dims_round_up() {
        let g = ChunkGrid::new(&[10, 7], &[4, 4]).unwrap();
        assert_eq!(g.grid_dims(), &[3, 2]);
        assert_eq!(g.num_chunks(), 6);
    }

    #[test]
    fn edge_chunks_are_clipped() {
        let g = ChunkGrid::new(&[10, 7], &[4, 4]).unwrap();
        assert_eq!(g.chunk_extent(&[0, 0]), vec![4, 4]);
        assert_eq!(g.chunk_extent(&[2, 1]), vec![2, 3]);
        assert_eq!(g.chunk_origin(&[2, 1]), vec![8, 4]);
    }

    #[test]
    fn split_assemble_roundtrip() {
        let a = NdArray::from_fn(&[9, 5], |ix| (ix[0] * 5 + ix[1]) as f64);
        let g = ChunkGrid::new(&[9, 5], &[4, 3]).unwrap();
        let chunks = g.split(&a).unwrap();
        assert_eq!(chunks.len(), g.num_chunks());
        let b = g.assemble(&chunks).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_of_and_overlap() {
        let g = ChunkGrid::new(&[100, 100], &[10, 10]).unwrap();
        assert_eq!(g.chunk_of(&[25, 99]), vec![2, 9]);
        // A selection crossing two chunks on each axis touches 4 chunks.
        let touched = g.chunks_overlapping(&[5, 15], &[10, 10]);
        assert_eq!(touched.len(), 4);
        assert!(touched.contains(&vec![0, 1]));
        assert!(touched.contains(&vec![1, 2]));
    }

    #[test]
    fn aligned_selection_touches_one_chunk() {
        let g = ChunkGrid::new(&[100, 100], &[10, 10]).unwrap();
        let touched = g.chunks_overlapping(&[10, 20], &[10, 10]);
        assert_eq!(touched, vec![vec![1, 2]]);
    }

    #[test]
    fn zero_chunk_dim_is_error() {
        assert!(ChunkGrid::new(&[10], &[0]).is_err());
        assert!(ChunkGrid::new(&[10, 10], &[5]).is_err());
    }
}
