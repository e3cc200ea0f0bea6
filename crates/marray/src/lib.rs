#![warn(missing_docs)]

//! # marray — dense N-dimensional arrays for scientific image analytics
//!
//! A small, self-contained multidimensional array library providing the
//! operations the image-analytics use cases of Mehta et al. (VLDB 2017)
//! require: shape/stride arithmetic, axis slicing and reductions, boolean
//! masks and axis compression, element-wise arithmetic, 3-D window (stencil)
//! iteration, and regular chunking (the storage model of the SciDB-analog
//! engine).
//!
//! Arrays are dense, row-major (C order) and backed by reference-counted
//! immutable chunk buffers ([`ChunkBuf`]): cloning shares bytes, mutation is
//! copy-on-write, and every deep copy is recorded by the process-wide
//! [`CopyCounter`] — the zero-copy data plane the engine analogs build on
//! (see `chunkstore`). The library favours explicit index math over a
//! general view/lifetime system: kernels that need raw speed index into
//! `data()` slices directly with [`Shape::offset`].
//!
//! ```
//! use marray::NdArray;
//! let a = NdArray::from_fn(&[2, 3], |ix| (ix[0] * 3 + ix[1]) as f64);
//! assert_eq!(a[&[1, 2]], 5.0);
//! let col_means = a.mean_axis(0);
//! assert_eq!(col_means.shape().dims(), &[3]);
//! assert_eq!(col_means[&[0]], 1.5);
//! ```

mod array;
mod chunk;
mod chunkstore;
pub mod codec;
mod element;
mod error;
mod mask;
mod reduce;
mod shape;
mod spill;
mod strided;
mod window;

pub use array::NdArray;
pub use chunk::{ChunkGrid, ChunkIx};
pub use chunkstore::{ChunkBuf, ChunkView, CopyCounter, CopyStats, ReasonStats, Residency};
pub use codec::{
    compress_mode, with_compress_mode, ChunkRepr, CodecCounter, CodecReprStats, CodecStats,
    CompressMode, Encoded,
};
pub use element::Element;
pub use error::{ArrayError, Result};
pub use mask::Mask;
pub use shape::Shape;
pub use spill::{
    mem_budget, register_valve, set_mem_budget, with_mem_budget, GovStats, MemoryGovernor,
    ValveGuard,
};
pub use window::{window_bounds, WindowIter};
