//! AFL-style chunk-at-a-time operators.

use crate::db::{ArrayDbError, ScidbArray};
use marray::{ChunkGrid, Mask, NdArray};
use parexec::{CostHint, MorselPool, Parallelism};

impl ScidbArray {
    /// `filter`/`compress`: keep positions along `axis` selected by a 1-D
    /// mask, over the assembled array, re-chunking the result. The chunk
    /// reconstruction a misaligned selection costs the real engine (the
    /// Figure 12a filter penalty) is modeled in the lowering
    /// (`core::lower::steps::filter_step`), not counted here.
    pub fn compress(&self, mask: &Mask, axis: usize) -> Result<ScidbArray, ArrayDbError> {
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
        let full = self.materialize()?;
        let av = a.materialize()?;
        let bv = b.materialize()?;
        let inner: usize = dims[1..].iter().product();
        // Compute into a fresh buffer: the old clone-then-mutate forced a
        // full deep copy before the first write. Each leading-axis slice of
        // the stack lines up with the two operand planes element for element.
        let (av, bv) = (av.data(), bv.data());
        let mut out_data = Vec::with_capacity(full.len());
        for slice in full.data().chunks(inner.max(1)) {
            out_data.extend(
                slice
                    .iter()
                    .zip(av.iter().zip(bv))
                    .map(|(&v, (&a, &b))| f(v, a, b)),
            );
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

    /// The `stream()` interface: pipe each chunk through an external UDF.
    ///
    /// Chunk data really is serialized to TSV, parsed by the "external
    /// process", transformed, serialized back and re-parsed — the exact
    /// interchange the paper measured as the Figure 12c overhead. The UDF
    /// must preserve the chunk's shape.
    ///
    /// The instances stream side by side, as the real engine's `stream()`
    /// runs one external process per instance: the chunks run one per
    /// morsel on `min(instances, chunks)` `parexec` pool workers, each with
    /// its full round trip. Results land in grid order, the
    /// first failing chunk in grid order is the error returned, and the
    /// TSV bytes are recorded in the copy ledger (`scidb.stream-tsv`) chunk
    /// by chunk in grid order after the walk, so output and ledger match a
    /// serial walk at any instance count.
    /// A panicking UDF reaches the caller with its own message.
    pub fn stream(
        &self,
        udf: impl Fn(&NdArray<f64>) -> NdArray<f64> + Sync,
    ) -> Result<ScidbArray, ArrayDbError> {
        let instances = Parallelism::threads(self.db.instances.min(self.chunks.len()).max(1));
        let one_chunk_per_morsel = CostHint::uniform().with_max_items(1);
        let streamed = MorselPool::with_hint(instances, one_chunk_per_morsel)
            .map(&self.chunks, |_, (_, chunk)| stream_chunk(chunk, &udf));
        let mut chunks = Vec::with_capacity(self.chunks.len());
        for ((ix, _), result) in self.chunks.iter().zip(streamed) {
            let (back, tsv_bytes) = result?;
            marray::CopyCounter::record("scidb.stream-tsv", tsv_bytes);
            chunks.push((ix.clone(), back));
        }
        Ok(ScidbArray {
            db: self.db.clone(),
            grid: self.grid.clone(),
            chunks,
        })
    }
}

/// One chunk's `stream()` round trip: TSV out, parse, UDF, TSV back,
/// parse. Returns the streamed chunk and the TSV bytes moved both ways.
fn stream_chunk(
    chunk: &NdArray<f64>,
    udf: impl Fn(&NdArray<f64>) -> NdArray<f64>,
) -> Result<(NdArray<f64>, usize), ArrayDbError> {
    // Engine → external process.
    let outbound = formats::text::to_tsv(&chunk.cast());
    let received =
        formats::text::from_tsv(&outbound).map_err(|e| ArrayDbError::BadCsv(e.to_string()))?;
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
    let back =
        formats::text::from_tsv(&inbound).map_err(|e| ArrayDbError::BadCsv(e.to_string()))?;
    Ok((back.cast(), outbound.len() + inbound.len()))
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
    fn stream_runs_udf_through_tsv() {
        let s = stored(&[6, 4], &[3, 2]);
        let out = s.stream(|chunk| chunk.map(|v| v + 1.0)).unwrap();
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
