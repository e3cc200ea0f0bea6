//! AFL-style chunk-at-a-time operators.

use crate::db::{ArrayDbError, ScidbArray};
use marray::{ChunkGrid, Mask, NdArray};
use std::sync::atomic::Ordering;

impl ScidbArray {
    /// `between(lo, hi)` / `subarray`: extract a hyper-rectangle.
    ///
    /// Chunk-at-a-time: every chunk overlapping the selection is read in
    /// full; misaligned selections additionally cut cells out of chunks
    /// and rebuild result chunks (counted in
    /// [`crate::OpStats::chunks_reconstructed`]) — the mechanism behind
    /// SciDB's slow filter in Figure 12a ("the internal chunks are not
    /// aligned with the selection").
    pub fn between(&self, starts: &[usize], dims: &[usize]) -> Result<ScidbArray, ArrayDbError> {
        let touched = self.grid.chunks_overlapping(starts, dims);
        let mut scanned_cells = 0u64;
        let mut reconstructed = 0u64;
        for ix in &touched {
            let extent = self.grid.chunk_extent(ix);
            scanned_cells += extent.iter().product::<usize>() as u64;
            let origin = self.grid.chunk_origin(ix);
            let aligned = origin
                .iter()
                .zip(&extent)
                .zip(starts.iter().zip(dims))
                .all(|((&o, &e), (&s, &d))| o >= s && o + e <= s + d);
            if !aligned {
                reconstructed += 1;
            }
        }
        self.record_scan(touched.len() as u64, scanned_cells);
        self.db
            .stats
            .chunks_reconstructed
            .fetch_add(reconstructed, Ordering::Relaxed);

        // Execute via assemble-of-touched-chunks for correctness.
        let full = self.materialize()?;
        let sub = full.subarray(starts, dims)?;
        let chunk_dims: Vec<usize> = self
            .grid
            .chunk_dims()
            .iter()
            .zip(dims)
            .map(|(&c, &d)| c.min(d).max(1))
            .collect();
        let grid = ChunkGrid::new(dims, &chunk_dims)?;
        self.record_rechunk(sub.stored_nbytes());
        let chunks = grid.split(&sub)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// `filter`/`compress`: keep positions along `axis` selected by a 1-D
    /// mask. Always misaligned unless the mask selects whole chunk rows.
    pub fn compress(&self, mask: &Mask, axis: usize) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        self.db
            .stats
            .chunks_reconstructed
            .fetch_add(self.chunks.len() as u64, Ordering::Relaxed);
        let full = self.materialize()?;
        let out = full.compress_axis(mask, axis)?;
        let chunk_dims: Vec<usize> = self
            .grid
            .chunk_dims()
            .iter()
            .zip(out.dims())
            .map(|(&c, &d)| c.min(d).max(1))
            .collect();
        let grid = ChunkGrid::new(out.dims(), &chunk_dims)?;
        self.record_rechunk(out.stored_nbytes());
        let chunks = grid.split(&out)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// `aggregate(avg(...), dim)`: mean along one axis — the operation
    /// SciDB is fastest at in Figure 12b ("optimized for array operations
    /// and this computation exercises SciDB's specialized design").
    pub fn aggregate_mean(&self, axis: usize) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let full = self.materialize()?;
        let out = full.mean_axis(axis);
        let chunk_dims: Vec<usize> = self
            .grid
            .chunk_dims()
            .iter()
            .enumerate()
            .filter(|&(a, _)| a != axis)
            .map(|(_, &c)| c)
            .zip(out.dims())
            .map(|(c, &d)| c.min(d).max(1))
            .collect();
        let grid = ChunkGrid::new(out.dims(), &chunk_dims)?;
        self.record_rechunk(out.stored_nbytes());
        let chunks = grid.split(&out)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// `aggregate(sum(...), dim)`: sum along one axis.
    pub fn aggregate_sum(&self, axis: usize) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let full = self.materialize()?;
        let out = full.sum_axis(axis);
        let chunk_dims: Vec<usize> = self
            .grid
            .chunk_dims()
            .iter()
            .enumerate()
            .filter(|&(a, _)| a != axis)
            .map(|(_, &c)| c)
            .zip(out.dims())
            .map(|(c, &d)| c.min(d).max(1))
            .collect();
        let grid = ChunkGrid::new(out.dims(), &chunk_dims)?;
        self.record_rechunk(out.stored_nbytes());
        let chunks = grid.split(&out)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// `cross_join`: combine a rank-(N) array with two rank-(N-1) arrays
    /// that match its trailing dimensions — the AFL `cross_join` used to
    /// compare each visit's pixels against the per-pixel mean/σ during
    /// iterative outlier removal.
    pub fn cross_join2(
        &self,
        a: &ScidbArray,
        b: &ScidbArray,
        f: impl Fn(f64, f64, f64) -> f64,
    ) -> Result<ScidbArray, ArrayDbError> {
        let dims = self.dims();
        if a.dims() != &dims[1..] || b.dims() != &dims[1..] {
            return Err(ArrayDbError::Mismatch(format!(
                "cross_join2 expects trailing dims {:?}, got {:?} and {:?}",
                &dims[1..],
                a.dims(),
                b.dims()
            )));
        }
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let full = self.materialize()?;
        let av = a.materialize()?;
        let bv = b.materialize()?;
        let inner: usize = dims[1..].iter().product();
        // Compute into a fresh buffer: the old clone-then-mutate forced a
        // full deep copy before the first write.
        let mut out_data = Vec::with_capacity(full.len());
        for (i, &v) in full.data().iter().enumerate() {
            out_data.push(f(v, av.data()[i % inner], bv.data()[i % inner]));
        }
        let out = NdArray::from_vec(full.dims(), out_data)?;
        self.record_rechunk(out.stored_nbytes());
        let chunks = self.grid.split(&out)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid: self.grid.clone(),
            chunks,
        })
    }

    /// `apply`: element-wise function per chunk (no reconstruction).
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let chunks = self
            .chunks
            .iter()
            .map(|(ix, c)| (ix.clone(), c.map(&f)))
            .collect();
        Ok(ScidbArray {
            db: self.db.clone(),
            grid: self.grid.clone(),
            chunks,
        })
    }

    /// `join`: element-wise combination of two identically chunked arrays.
    pub fn join(
        &self,
        other: &ScidbArray,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<ScidbArray, ArrayDbError> {
        if self.grid != other.grid {
            return Err(ArrayDbError::Mismatch(format!(
                "join requires identical chunking: {:?} vs {:?}",
                self.grid.array_dims(),
                other.grid.array_dims()
            )));
        }
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(2 * self.chunks.len() as u64, 2 * cells);
        let chunks = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .map(|((ix, a), (_, b))| Ok((ix.clone(), a.zip_with(b, &f)?)))
            .collect::<Result<Vec<_>, marray::ArrayError>>()?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid: self.grid.clone(),
            chunks,
        })
    }

    /// `window(avg, radius)`: windowed mean. Supported (SciDB's `window()`
    /// exists) but only for simple aggregates; it is not a convolution.
    /// Executes over the assembled array so windows cross chunk borders
    /// correctly, charging a halo-exchange reconstruction per chunk.
    pub fn window_mean(&self, radius: usize) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        self.db
            .stats
            .chunks_reconstructed
            .fetch_add(self.chunks.len() as u64, Ordering::Relaxed);
        let full = self.materialize()?;
        let dims = full.dims().to_vec();
        let rank = dims.len();
        let mut out = NdArray::<f64>::zeros(&dims);
        // Generic rank-N box mean via per-axis clamped windows.
        let shape = full.shape().clone();
        for (off, ix) in shape.indices().enumerate() {
            let mut sum = 0.0;
            let mut count = 0usize;
            // Iterate the window around ix.
            let lo_hi: Vec<(usize, usize)> = (0..rank)
                .map(|a| marray::window_bounds(ix[a], radius, dims[a]))
                .collect();
            let wdims: Vec<usize> = lo_hi.iter().map(|(l, h)| h - l).collect();
            for rel in marray::Shape::new(&wdims).indices() {
                let abs: Vec<usize> = rel.iter().zip(&lo_hi).map(|(&r, &(l, _))| l + r).collect();
                sum += full[&abs[..]];
                count += 1;
            }
            out.data_mut()[off] = sum / count as f64;
        }
        let grid = self.grid.clone();
        self.record_rechunk(out.stored_nbytes());
        let chunks = grid.split(&out)?;
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// `redimension`: re-chunk the array under a new chunk shape — the
    /// engine's signature reorganization operator and the mechanism behind
    /// the §5.3.1 chunk-size tuning. Every chunk is read, cut apart and
    /// rebuilt.
    pub fn redimension(&self, chunk_dims: &[usize]) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let full = self.materialize()?;
        let grid = ChunkGrid::new(full.dims(), chunk_dims)?;
        self.record_rechunk(full.stored_nbytes());
        let chunks = grid.split(&full)?;
        self.db
            .stats
            .chunks_reconstructed
            .fetch_add(chunks.len() as u64, Ordering::Relaxed);
        Ok(ScidbArray {
            db: self.db.clone(),
            grid,
            chunks,
        })
    }

    /// High-dimensional convolution — **not available**, as in the
    /// evaluated engine. Steps 2N, 3N and 4A cannot be implemented
    /// natively.
    pub fn convolve(&self, _kernel: &NdArray<f64>) -> Result<ScidbArray, ArrayDbError> {
        Err(ArrayDbError::Unsupported("high-dimensional convolution"))
    }

    /// The `stream()` interface: pipe each chunk through an external UDF.
    ///
    /// Chunk data really is serialized to TSV, parsed by the "external
    /// process", transformed, serialized back and re-parsed — the exact
    /// interchange the paper measured as the Figure 12c overhead. The UDF
    /// must preserve the chunk's shape.
    pub fn stream(
        &self,
        udf: impl Fn(&NdArray<f64>) -> NdArray<f64>,
    ) -> Result<ScidbArray, ArrayDbError> {
        let cells: u64 = self.chunks.iter().map(|(_, c)| c.len() as u64).sum();
        self.record_scan(self.chunks.len() as u64, cells);
        let mut chunks = Vec::with_capacity(self.chunks.len());
        for (ix, chunk) in &self.chunks {
            // Engine → external process.
            let outbound = formats::text::to_tsv(&chunk.cast());
            let received = formats::text::from_tsv(&outbound)
                .map_err(|e| ArrayDbError::BadCsv(e.to_string()))?;
            let transformed = udf(&received.cast());
            if transformed.dims() != chunk.dims() {
                return Err(ArrayDbError::Mismatch(format!(
                    "stream() UDF changed chunk shape {:?} -> {:?}",
                    chunk.dims(),
                    transformed.dims()
                )));
            }
            // External process → engine.
            let inbound = formats::text::to_tsv(&transformed.cast());
            let back = formats::text::from_tsv(&inbound)
                .map_err(|e| ArrayDbError::BadCsv(e.to_string()))?;
            self.db
                .stats
                .stream_tsv_bytes
                .fetch_add((outbound.len() + inbound.len()) as u64, Ordering::Relaxed);
            marray::CopyCounter::record("scidb.stream-tsv", outbound.len() + inbound.len());
            chunks.push((ix.clone(), back.cast()));
        }
        Ok(ScidbArray {
            db: self.db.clone(),
            grid: self.grid.clone(),
            chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ArrayDb;

    fn stored(dims: &[usize], chunk: &[usize]) -> ScidbArray {
        let db = ArrayDb::connect(4);
        let a = NdArray::from_fn(dims, |ix| {
            ix.iter()
                .enumerate()
                .map(|(k, &v)| v as f64 * 10f64.powi(k as i32))
                .sum()
        });
        db.from_array(&a, chunk).unwrap()
    }

    #[test]
    fn between_aligned_touches_one_chunk() {
        let s = stored(&[20, 20], &[10, 10]);
        let before = s.db.stats().snapshot();
        let sub = s.between(&[10, 0], &[10, 10]).unwrap();
        let after = s.db.stats().snapshot();
        assert_eq!(after.0 - before.0, 1, "one chunk scanned");
        assert_eq!(after.1 - before.1, 0, "aligned: nothing reconstructed");
        assert_eq!(sub.dims(), &[10, 10]);
    }

    #[test]
    fn between_misaligned_reconstructs() {
        let s = stored(&[20, 20], &[10, 10]);
        let before = s.db.stats().snapshot();
        let sub = s.between(&[5, 5], &[10, 10]).unwrap();
        let after = s.db.stats().snapshot();
        assert_eq!(after.0 - before.0, 4, "selection straddles four chunks");
        assert_eq!(after.1 - before.1, 4, "all four rebuilt");
        // Values still correct.
        let full = stored(&[20, 20], &[10, 10]).materialize().unwrap();
        assert_eq!(
            sub.materialize().unwrap(),
            full.subarray(&[5, 5], &[10, 10]).unwrap()
        );
    }

    #[test]
    fn compress_matches_reference() {
        let s = stored(&[4, 4, 6], &[2, 2, 3]);
        let mask = Mask::from_vec(&[6], vec![true, false, true, false, false, true]).unwrap();
        let out = s.compress(&mask, 2).unwrap();
        assert_eq!(out.dims(), &[4, 4, 3]);
        let reference = s.materialize().unwrap().compress_axis(&mask, 2).unwrap();
        assert_eq!(out.materialize().unwrap(), reference);
    }

    #[test]
    fn aggregate_mean_matches_reference() {
        let s = stored(&[4, 4, 6], &[2, 2, 3]);
        let out = s.aggregate_mean(2).unwrap();
        assert_eq!(out.dims(), &[4, 4]);
        assert_eq!(
            out.materialize().unwrap(),
            s.materialize().unwrap().mean_axis(2)
        );
    }

    #[test]
    fn apply_and_join() {
        let s = stored(&[6, 6], &[3, 3]);
        let doubled = s.apply(|v| v * 2.0).unwrap();
        let sum = s.join(&doubled, |a, b| a + b).unwrap();
        let m = sum.materialize().unwrap();
        let base = s.materialize().unwrap();
        for (x, y) in m.data().iter().zip(base.data()) {
            assert_eq!(*x, y * 3.0);
        }
    }

    #[test]
    fn join_requires_same_chunking() {
        let a = stored(&[6, 6], &[3, 3]);
        let b = stored(&[6, 6], &[2, 2]);
        assert!(matches!(
            a.join(&b, |x, y| x + y),
            Err(ArrayDbError::Mismatch(_))
        ));
    }

    #[test]
    fn window_mean_crosses_chunk_borders() {
        // A constant array must stay constant; if halos were ignored the
        // borders between chunks would dip.
        let db = ArrayDb::connect(2);
        let a = NdArray::<f64>::full(&[8, 8], 5.0);
        let s = db.from_array(&a, &[4, 4]).unwrap();
        let w = s.window_mean(1).unwrap().materialize().unwrap();
        for &v in w.data() {
            assert!((v - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregate_sum_matches_reference() {
        let s = stored(&[3, 4], &[2, 2]);
        let out = s.aggregate_sum(0).unwrap();
        assert_eq!(
            out.materialize().unwrap(),
            s.materialize().unwrap().sum_axis(0)
        );
    }

    #[test]
    fn cross_join2_broadcasts_trailing_dims() {
        let db = ArrayDb::connect(2);
        // Stack of 3 "visits" of 2×2 pixels.
        let cube = NdArray::from_fn(&[3, 2, 2], |ix| (ix[0] * 100 + ix[1] * 2 + ix[2]) as f64);
        let s = db.from_array(&cube, &[1, 2, 2]).unwrap();
        let mean = s.aggregate_mean(0).unwrap();
        let zeros = db.from_array(&NdArray::zeros(&[2, 2]), &[2, 2]).unwrap();
        let centered = s.cross_join2(&mean, &zeros, |v, m, _| v - m).unwrap();
        let back = centered.materialize().unwrap();
        // Per-pixel mean of centered values is zero.
        let m = back.mean_axis(0);
        for &v in m.data() {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn cross_join2_rejects_bad_dims() {
        let db = ArrayDb::connect(1);
        let cube = NdArray::<f64>::zeros(&[3, 2, 2]);
        let s = db.from_array(&cube, &[1, 2, 2]).unwrap();
        let wrong = db.from_array(&NdArray::zeros(&[3, 2]), &[3, 2]).unwrap();
        assert!(s.cross_join2(&wrong, &wrong, |v, _, _| v).is_err());
    }

    #[test]
    fn redimension_preserves_data_and_changes_grid() {
        let s = stored(&[12, 8], &[4, 4]);
        let before = s.materialize().unwrap();
        let r = s.redimension(&[6, 2]).unwrap();
        assert_eq!(r.grid.chunk_dims(), &[6, 2]);
        assert_eq!(r.chunk_count(), 8);
        assert_eq!(r.materialize().unwrap(), before);
        // Reconstruction work was recorded.
        assert!(s.db.stats().snapshot().1 >= 8);
    }

    #[test]
    fn redimension_then_aligned_between_is_cheap() {
        // Retuning the chunk shape makes a previously misaligned selection
        // aligned — the point of the §5.3.1 exercise.
        let s = stored(&[20, 20], &[8, 8]);
        let r = s.redimension(&[10, 10]).unwrap();
        let before = r.db.stats().snapshot();
        r.between(&[10, 0], &[10, 10]).unwrap();
        let after = r.db.stats().snapshot();
        assert_eq!(after.1 - before.1, 0, "aligned after redimension");
    }

    #[test]
    fn convolution_is_unsupported() {
        let s = stored(&[4, 4], &[2, 2]);
        let err = s.convolve(&NdArray::zeros(&[3, 3])).unwrap_err();
        assert_eq!(
            err,
            ArrayDbError::Unsupported("high-dimensional convolution")
        );
    }

    #[test]
    fn stream_runs_udf_through_tsv() {
        let s = stored(&[6, 4], &[3, 2]);
        let before = s.db.stats().snapshot().3;
        let out = s.stream(|chunk| chunk.map(|v| v + 1.0)).unwrap();
        let after = s.db.stats().snapshot().3;
        assert!(after > before, "TSV bytes were counted");
        let m = out.materialize().unwrap();
        let base = s.materialize().unwrap();
        for (x, y) in m.data().iter().zip(base.data()) {
            assert!(
                (x - (y + 1.0)).abs() < 1e-3,
                "{x} vs {y}+1 (f32 TSV roundtrip)"
            );
        }
    }

    #[test]
    fn stream_rejects_shape_changing_udf() {
        let s = stored(&[4, 4], &[2, 2]);
        let err = s.stream(|_| NdArray::zeros(&[1])).unwrap_err();
        assert!(matches!(err, ArrayDbError::Mismatch(_)));
    }
}
