//! The database handle, stored arrays, and operator statistics.

use marray::{ChunkGrid, ChunkIx, NdArray};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from array operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayDbError {
    /// The requested operation does not exist in the engine (the paper:
    /// "SciDB ... lacks critical functions including high-dimensional
    /// convolutions").
    Unsupported(&'static str),
    /// Shape/chunking mismatch between operands.
    Mismatch(String),
    /// Underlying array error.
    Array(marray::ArrayError),
    /// CSV parse failure during `aio_input`.
    BadCsv(String),
}

impl std::fmt::Display for ArrayDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayDbError::Unsupported(op) => {
                write!(f, "operation not supported by the engine: {op}")
            }
            ArrayDbError::Mismatch(s) => write!(f, "operand mismatch: {s}"),
            ArrayDbError::Array(e) => write!(f, "array error: {e}"),
            ArrayDbError::BadCsv(s) => write!(f, "aio_input parse error: {s}"),
        }
    }
}

impl std::error::Error for ArrayDbError {}

impl From<marray::ArrayError> for ArrayDbError {
    fn from(e: marray::ArrayError) -> Self {
        ArrayDbError::Array(e)
    }
}

/// Cumulative operator statistics — the observable cost of the
/// chunk-at-a-time execution model.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Chunks read by operators.
    pub chunks_scanned: AtomicU64,
    /// Chunks that had to be cut apart and reassembled because a selection
    /// was not aligned with chunk boundaries.
    pub chunks_reconstructed: AtomicU64,
    /// Cells processed by operators.
    pub cells_processed: AtomicU64,
    /// Bytes serialized through the `stream()` TSV interface (both ways).
    pub stream_tsv_bytes: AtomicU64,
}

impl OpStats {
    /// Snapshot: (scanned, reconstructed, cells, tsv bytes).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.chunks_scanned.load(Ordering::Relaxed),
            self.chunks_reconstructed.load(Ordering::Relaxed),
            self.cells_processed.load(Ordering::Relaxed),
            self.stream_tsv_bytes.load(Ordering::Relaxed),
        )
    }
}

/// A connection to the array database.
#[derive(Debug, Clone)]
pub struct ArrayDb {
    /// Number of instances (the vendor guidance: one per 1–2 cores).
    pub instances: usize,
    pub(crate) stats: Arc<OpStats>,
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
            stats: Arc::new(OpStats::default()),
        }
    }

    /// Operator statistics for this connection.
    pub fn stats(&self) -> &OpStats {
        &self.stats
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

    /// SciDB-2 ingest: the parallel `aio_input()` CSV loader. Consumes the
    /// `coord...,value` CSV text (the format the paper converts NIfTI/FITS
    /// files into) — an order of magnitude faster at cluster scale, at the
    /// price of the text conversion.
    pub fn aio_input(
        &self,
        csv: &str,
        dims: &[usize],
        chunk_dims: &[usize],
    ) -> Result<ScidbArray, ArrayDbError> {
        let array =
            formats::text::from_csv(csv, dims).map_err(|e| ArrayDbError::BadCsv(e.to_string()))?;
        self.from_array(&array.cast(), chunk_dims)
    }

    /// Instance owning a chunk (round-robin in grid order).
    pub fn instance_of(&self, chunk_ordinal: usize) -> usize {
        chunk_ordinal % self.instances
    }
}

impl ScidbArray {
    /// The array's dims.
    pub fn dims(&self) -> &[usize] {
        self.grid.array_dims()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
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

    pub(crate) fn record_scan(&self, chunks: u64, cells: u64) {
        self.db
            .stats
            .chunks_scanned
            .fetch_add(chunks, Ordering::Relaxed);
        self.db
            .stats
            .cells_processed
            .fetch_add(cells, Ordering::Relaxed);
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
        assert_eq!(stored.chunk_count(), 6);
        assert_eq!(stored.materialize().unwrap(), a);
    }

    #[test]
    fn aio_input_matches_from_array() {
        let db = ArrayDb::connect(2);
        let a = NdArray::from_fn(&[6, 6], |ix| ix[0] as f64 - ix[1] as f64 * 0.5);
        let csv = formats::text::to_csv(&a.cast());
        let via_csv = db.aio_input(&csv, &[6, 6], &[3, 3]).unwrap();
        let direct = db.from_array(&a, &[3, 3]).unwrap();
        let x = via_csv.materialize().unwrap();
        let y = direct.materialize().unwrap();
        for (p, q) in x.data().iter().zip(y.data()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn aio_input_rejects_garbage() {
        let db = ArrayDb::connect(1);
        assert!(matches!(
            db.aio_input("not,a,number\n", &[2, 2], &[2, 2]),
            Err(ArrayDbError::BadCsv(_))
        ));
    }

    #[test]
    fn instances_round_robin() {
        let db = ArrayDb::connect(3);
        assert_eq!(db.instance_of(0), 0);
        assert_eq!(db.instance_of(4), 1);
    }
}
