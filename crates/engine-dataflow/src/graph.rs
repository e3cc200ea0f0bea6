//! Static graph construction.

use marray::NdArray;

/// Maximum serialized graph size: 2 GB, as in the system the paper
/// evaluated ("each compute graph must be smaller than 2GB when
/// serialized").
pub const GRAPH_SIZE_LIMIT: u64 = 2 * 1024 * 1024 * 1024;

/// Handle to a tensor-valued node in a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorRef(pub(crate) usize);

/// Element-wise binary operations, applied against a scalar operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Element-wise maximum.
    Max,
    /// Greater-than comparison, producing 0/1.
    Greater,
}

/// The operation of one graph node.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Data fed at run time (shape fixed at build time).
    Placeholder {
        /// The tensor shape to be fed.
        shape: Vec<usize>,
    },
    /// Mean over one axis.
    ReduceMean {
        /// Axis to reduce.
        axis: usize,
    },
    /// Select rows along **axis 0 only** — the engine's only selection
    /// primitive.
    Gather {
        /// Row indices to keep.
        indices: Vec<usize>,
    },
    /// Binary op against a scalar.
    ScalarOp(BinaryOp, f64),
    /// Dense 3-D convolution with "same" zero padding.
    Conv3d {
        /// The (odd-sized) kernel, embedded in the graph (counts toward
        /// the 2 GB limit).
        kernel: NdArray<f64>,
    },
    /// Axis permutation (`tf.transpose`): a full data-movement pass — this
    /// is what makes "move the volume axis first, then gather" expensive.
    Transpose {
        /// `perm[i]` = source axis that becomes output axis `i`.
        perm: Vec<usize>,
    },
}

/// One node: operation + inputs.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// The operation.
    pub kind: OpKind,
    /// Input node ids.
    pub inputs: Vec<usize>,
}

/// Builds a static graph. Ops are appended in order, so every node's
/// inputs precede it.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    pub(crate) nodes: Vec<OpNode>,
}

impl GraphBuilder {
    /// Empty graph.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    fn push(&mut self, kind: OpKind, inputs: Vec<usize>) -> TensorRef {
        self.nodes.push(OpNode { kind, inputs });
        TensorRef(self.nodes.len() - 1)
    }

    /// A run-time-fed input of fixed shape.
    pub fn placeholder(&mut self, shape: &[usize]) -> TensorRef {
        self.push(
            OpKind::Placeholder {
                shape: shape.to_vec(),
            },
            vec![],
        )
    }

    /// Mean along `axis`.
    pub fn reduce_mean(&mut self, input: TensorRef, axis: usize) -> TensorRef {
        self.push(OpKind::ReduceMean { axis }, vec![input.0])
    }

    /// Select `indices` along axis 0. Selection along any other axis is
    /// not expressible directly: transpose so the target axis is first.
    pub fn gather(&mut self, input: TensorRef, indices: &[usize]) -> TensorRef {
        self.push(
            OpKind::Gather {
                indices: indices.to_vec(),
            },
            vec![input.0],
        )
    }

    /// Element-wise op against a scalar.
    pub fn scalar_op(&mut self, op: BinaryOp, input: TensorRef, scalar: f64) -> TensorRef {
        self.push(OpKind::ScalarOp(op, scalar), vec![input.0])
    }

    /// Axis permutation (a full data-movement pass).
    pub fn transpose(&mut self, input: TensorRef, perm: &[usize]) -> TensorRef {
        self.push(
            OpKind::Transpose {
                perm: perm.to_vec(),
            },
            vec![input.0],
        )
    }

    /// 3-D convolution with "same" zero padding (the denoising rewrite the
    /// paper describes: "we further rewrite Step 2N using convolutions").
    pub fn conv3d(&mut self, input: TensorRef, kernel: NdArray<f64>) -> TensorRef {
        assert_eq!(kernel.shape().rank(), 3, "conv3d kernel must be rank 3");
        assert!(
            kernel.dims().iter().all(|d| d % 2 == 1),
            "conv3d kernel dims must be odd"
        );
        self.push(OpKind::Conv3d { kernel }, vec![input.0])
    }

    /// Serialized size: per-node structure bytes plus embedded kernels,
    /// shapes and index lists. This is what the 2 GB limit applies to.
    pub fn serialized_size(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                64 + n.inputs.len() as u64 * 8
                    + match &n.kind {
                        OpKind::Conv3d { kernel } => kernel.stored_nbytes() as u64,
                        OpKind::Gather { indices } => indices.len() as u64 * 8,
                        OpKind::Transpose { perm } => perm.len() as u64 * 8,
                        OpKind::Placeholder { shape } => shape.len() as u64 * 8,
                        _ => 0,
                    }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_size_counts_kernels() {
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[4, 4, 4]);
        let small = g.serialized_size();
        g.conv3d(p, NdArray::zeros(&[5, 5, 5]));
        assert!(g.serialized_size() >= small + 125 * 8);
    }

    #[test]
    #[should_panic(expected = "rank 3")]
    fn conv3d_requires_rank3_kernel() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder(&[4, 4]);
        g.conv3d(a, NdArray::zeros(&[3, 3]));
    }
}
