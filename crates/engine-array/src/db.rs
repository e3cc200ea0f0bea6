//! The database handle and stored arrays.

use marray::{ChunkGrid, ChunkIx, NdArray};

/// Errors from array operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayDbError {
    /// Shape/chunking mismatch between operands.
    Mismatch(String),
    /// Underlying array error.
    Array(marray::ArrayError),
    /// TSV parse failure in a `stream()` round trip.
    BadCsv(String),
}

impl std::fmt::Display for ArrayDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayDbError::Mismatch(s) => write!(f, "operand mismatch: {s}"),
            ArrayDbError::Array(e) => write!(f, "array error: {e}"),
            ArrayDbError::BadCsv(s) => write!(f, "stream() TSV parse error: {s}"),
        }
    }
}

impl std::error::Error for ArrayDbError {}

impl From<marray::ArrayError> for ArrayDbError {
    fn from(e: marray::ArrayError) -> Self {
        ArrayDbError::Array(e)
    }
}

/// A connection to the array database.
#[derive(Debug, Clone)]
pub struct ArrayDb {
    /// Number of instances (the vendor guidance: one per 1–2 cores).
    pub instances: usize,
}

/// A stored chunked array.
#[derive(Debug, Clone)]
pub struct ScidbArray {
    pub(crate) db: ArrayDb,
    /// The chunking layout.
    pub grid: ChunkGrid,
    /// Chunks in row-major grid order.
    pub chunks: Vec<(ChunkIx, NdArray<f64>)>,
}

impl ArrayDb {
    /// Connect to a deployment with `instances` instances.
    pub fn connect(instances: usize) -> ArrayDb {
        ArrayDb {
            instances: instances.max(1),
        }
    }

    /// SciDB-1 ingest: the client-side `from_array()` path. The whole
    /// array travels through the client serially before being chunked —
    /// the slow path in Figure 11. The stored chunks are dense: splitting
    /// a compressed client array reads it through one shared decode.
    pub fn from_array(
        &self,
        array: &NdArray<f64>,
        chunk_dims: &[usize],
    ) -> Result<ScidbArray, ArrayDbError> {
        let grid = ChunkGrid::new(array.dims(), chunk_dims)?;
        // Chunking the client array is the engine's architectural ingest
        // copy (Figure 11's slow path): every cell is rewritten into chunk
        // storage. The charge is the stored footprint — a compressed
        // client array crosses the boundary in its encoded form.
        marray::CopyCounter::record("scidb.ingest-chunking", array.stored_nbytes());
        let mut chunks = grid.split(array)?;
        // Under an active memory budget the stored chunks enter the
        // governor's spill tier, so an ingested array larger than the
        // budget degrades to spill I/O instead of exhausting memory.
        if marray::mem_budget().is_some() {
            for (_, chunk) in &mut chunks {
                *chunk = chunk.govern();
            }
        }
        Ok(ScidbArray {
            db: self.clone(),
            grid,
            chunks,
        })
    }
}

impl ScidbArray {
    /// The array's dims.
    pub fn dims(&self) -> &[usize] {
        self.grid.array_dims()
    }

    /// Assemble the full dense array (leaves the engine — used to return
    /// results to the client and to validate against the reference).
    ///
    /// This is a sanctioned architectural copy: SciDB's chunk-at-a-time
    /// storage cannot hand out the dense array without rewriting every
    /// chunk, so the rewrite is recorded under `"scidb.materialize"`.
    pub fn materialize(&self) -> Result<NdArray<f64>, ArrayDbError> {
        let nbytes: usize = self.chunks.iter().map(|(_, c)| c.stored_nbytes()).sum();
        marray::CopyCounter::record("scidb.materialize", nbytes);
        Ok(self.grid.assemble(&self.chunks)?)
    }

    /// Record one chunked rewrite of `bytes` bytes (result re-chunking
    /// after a misaligned or shape-changing operator).
    pub(crate) fn record_rechunk(&self, bytes: usize) {
        marray::CopyCounter::record("scidb.rechunk", bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_array_roundtrip() {
        let db = ArrayDb::connect(4);
        let a = NdArray::from_fn(&[10, 8], |ix| (ix[0] * 8 + ix[1]) as f64);
        let stored = db.from_array(&a, &[4, 4]).unwrap();
        assert_eq!(stored.chunks.len(), 6);
        assert_eq!(stored.materialize().unwrap(), a);
    }
}
