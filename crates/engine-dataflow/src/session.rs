//! Graph execution.

use crate::graph::{BinaryOp, GraphBuilder, OpKind, TensorRef, GRAPH_SIZE_LIMIT};
use marray::NdArray;
use std::collections::BTreeMap;

/// Errors raised by [`Session::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// The serialized graph exceeds the 2 GB limit.
    GraphTooLarge {
        /// The graph's serialized size.
        size: u64,
    },
    /// A placeholder was not fed.
    MissingFeed(usize),
    /// A fed tensor's shape does not match the placeholder.
    FeedShapeMismatch {
        /// The placeholder node id.
        node: usize,
        /// Declared shape.
        expected: Vec<usize>,
        /// Fed shape.
        got: Vec<usize>,
    },
    /// Two operands of a binary op have different shapes.
    ShapeMismatch(String),
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowError::GraphTooLarge { size } => {
                write!(
                    f,
                    "serialized graph is {size} bytes, over the {GRAPH_SIZE_LIMIT} limit"
                )
            }
            DataflowError::MissingFeed(n) => write!(f, "placeholder {n} was not fed"),
            DataflowError::FeedShapeMismatch {
                node,
                expected,
                got,
            } => {
                write!(
                    f,
                    "feed for node {node}: expected {expected:?}, got {got:?}"
                )
            }
            DataflowError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl std::error::Error for DataflowError {}

/// Executes graphs. All feeds enter through the master and all fetched
/// results return to it; the per-run barrier is implicit in `run`.
#[derive(Debug, Default)]
pub struct Session {
    runs: usize,
}

impl Session {
    /// New session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Number of `run` calls so far (each is a global barrier + master
    /// round-trip in the cost model).
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// Execute `graph`, feeding placeholders and returning the fetched
    /// tensors in order.
    // scilint: allow(F001, node inputs precede it in the plancheck-verified topological order; a missing value is a scheduler bug worth aborting on)
    pub fn run(
        &mut self,
        graph: &GraphBuilder,
        feeds: &BTreeMap<TensorRef, NdArray<f64>>,
        fetches: &[TensorRef],
    ) -> Result<Vec<NdArray<f64>>, DataflowError> {
        let size = graph.serialized_size();
        if size > GRAPH_SIZE_LIMIT {
            return Err(DataflowError::GraphTooLarge { size });
        }
        self.runs += 1;
        let mut values: Vec<Option<NdArray<f64>>> = vec![None; graph.nodes.len()];
        for (i, node) in graph.nodes.iter().enumerate() {
            let value = match &node.kind {
                OpKind::Placeholder { shape } => {
                    let fed = feeds
                        .get(&TensorRef(i))
                        .ok_or(DataflowError::MissingFeed(i))?;
                    if fed.dims() != shape.as_slice() {
                        return Err(DataflowError::FeedShapeMismatch {
                            node: i,
                            expected: shape.clone(),
                            got: fed.dims().to_vec(),
                        });
                    }
                    // scilint: allow(C001, feed handoff clones the NdArray handle - a ChunkBuf refcount bump)
                    fed.clone()
                }
                OpKind::ReduceMean { axis } => values[node.inputs[0]]
                    .as_ref()
                    .expect("topo order")
                    .mean_axis(*axis),
                OpKind::Gather { indices } => values[node.inputs[0]]
                    .as_ref()
                    .expect("topo order")
                    .take_axis(0, indices)
                    .map_err(|e| DataflowError::ShapeMismatch(e.to_string()))?,
                OpKind::ScalarOp(op, scalar) => {
                    let a = values[node.inputs[0]].as_ref().expect("topo order");
                    let s = *scalar;
                    match op {
                        BinaryOp::Add => a.map(|v| v + s),
                        BinaryOp::Sub => a.map(|v| v - s),
                        BinaryOp::Mul => a.map(|v| v * s),
                        BinaryOp::Div => a.map(|v| v / s),
                        BinaryOp::Max => a.map(|v| v.max(s)),
                        BinaryOp::Greater => a.map(|v| if v > s { 1.0 } else { 0.0 }),
                    }
                }
                OpKind::Conv3d { kernel } => {
                    let a = values[node.inputs[0]].as_ref().expect("topo order");
                    conv3d_same(a, kernel)
                }
                OpKind::Transpose { perm } => values[node.inputs[0]]
                    .as_ref()
                    .expect("topo order")
                    .permute_axes(perm)
                    .map_err(|e| DataflowError::ShapeMismatch(e.to_string()))?,
            };
            values[i] = Some(value);
        }
        Ok(fetches
            .iter()
            // scilint: allow(C001, fetch returns shared NdArray handles - refcount bumps per tensor)
            .map(|t| values[t.0].clone().expect("fetched node evaluated"))
            .collect())
    }
}

/// Dense 3-D convolution with "same" zero padding.
fn conv3d_same(input: &NdArray<f64>, kernel: &NdArray<f64>) -> NdArray<f64> {
    assert_eq!(input.shape().rank(), 3, "conv3d input must be rank 3");
    let (nx, ny, nz) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (kx, ky, kz) = (kernel.dims()[0], kernel.dims()[1], kernel.dims()[2]);
    let (rx, ry, rz) = (kx / 2, ky / 2, kz / 2);
    let mut out = NdArray::<f64>::zeros(input.dims());
    let id = input.data();
    let kd = kernel.data();
    let (sy, sz) = (ny * nz, nz);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let mut acc = 0.0;
                for i in 0..kx {
                    let xx = x as isize + i as isize - rx as isize;
                    if xx < 0 || xx >= nx as isize {
                        continue;
                    }
                    for j in 0..ky {
                        let yy = y as isize + j as isize - ry as isize;
                        if yy < 0 || yy >= ny as isize {
                            continue;
                        }
                        for k in 0..kz {
                            let zz = z as isize + k as isize - rz as isize;
                            if zz < 0 || zz >= nz as isize {
                                continue;
                            }
                            acc += id[xx as usize * sy + yy as usize * sz + zz as usize]
                                * kd[i * (ky * kz) + j * kz + k];
                        }
                    }
                }
                out.data_mut()[x * sy + y * sz + z] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(pairs: &[(TensorRef, NdArray<f64>)]) -> BTreeMap<TensorRef, NdArray<f64>> {
        pairs.iter().cloned().collect()
    }

    #[test]
    fn mean_pipeline() {
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[2, 3]);
        let m = g.reduce_mean(p, 1);
        let mut s = Session::new();
        let input = NdArray::from_fn(&[2, 3], |ix| (ix[0] * 3 + ix[1]) as f64);
        let out = s.run(&g, &feed(&[(p, input)]), &[m]).unwrap();
        assert_eq!(out[0].data(), &[1.0, 4.0]);
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn graph_size_limit_enforced() {
        // Every conv3d node embeds its kernel, so 300 nodes sharing one
        // 8 MB kernel buffer serialize to about 2.4 GB without allocating
        // it: the graph is refused before anything runs.
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[4, 4, 4]);
        let kernel = NdArray::<f64>::zeros(&[201, 201, 25]); // ~8 MB
        let mut x = p;
        for _ in 0..300 {
            x = g.conv3d(x, kernel.clone());
        }
        let size = g.serialized_size();
        assert!(size > GRAPH_SIZE_LIMIT, "{size}");
        let mut s = Session::new();
        let feeds = feed(&[(p, NdArray::zeros(&[4, 4, 4]))]);
        assert_eq!(
            s.run(&g, &feeds, &[x]).unwrap_err(),
            DataflowError::GraphTooLarge { size }
        );
        assert_eq!(s.run_count(), 0, "a refused graph is not a run");

        // A single conv3d node is far under the limit and runs.
        let mut small = GraphBuilder::new();
        let p = small.placeholder(&[4, 4, 4]);
        let c = small.conv3d(p, NdArray::full(&[3, 3, 3], 1.0));
        let out = s.run(&small, &feed(&[(p, NdArray::zeros(&[4, 4, 4]))]), &[c]);
        assert!(out.is_ok());
    }

    #[test]
    fn missing_feed_and_shape_mismatch() {
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[2, 2]);
        let m = g.reduce_mean(p, 0);
        let mut s = Session::new();
        assert_eq!(
            s.run(&g, &BTreeMap::new(), &[m]).unwrap_err(),
            DataflowError::MissingFeed(0)
        );
        let bad = NdArray::<f64>::zeros(&[3, 3]);
        assert!(matches!(
            s.run(&g, &feed(&[(p, bad)]), &[m]).unwrap_err(),
            DataflowError::FeedShapeMismatch { .. }
        ));
    }

    #[test]
    fn scalar_ops() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder(&[3]);
        let scaled = g.scalar_op(BinaryOp::Mul, a, 2.0);
        let thresh = g.scalar_op(BinaryOp::Greater, scaled, 4.0);
        let mut s = Session::new();
        let out = s
            .run(
                &g,
                &feed(&[(a, NdArray::from_vec(&[3], vec![1.0, 2.5, 3.0]).unwrap())]),
                &[scaled, thresh],
            )
            .unwrap();
        assert_eq!(out[0].data(), &[2.0, 5.0, 6.0]);
        assert_eq!(out[1].data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn conv3d_identity_kernel() {
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[4, 4, 4]);
        let mut k = NdArray::<f64>::zeros(&[3, 3, 3]);
        k[&[1, 1, 1][..]] = 1.0;
        let c = g.conv3d(p, k);
        let mut s = Session::new();
        let input = NdArray::from_fn(&[4, 4, 4], |ix| (ix[0] + 2 * ix[1] + 4 * ix[2]) as f64);
        let out = s.run(&g, &feed(&[(p, input.clone())]), &[c]).unwrap();
        assert_eq!(out[0], input);
    }

    #[test]
    fn conv3d_box_kernel_smooths() {
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[5, 5, 5]);
        let k = NdArray::<f64>::full(&[3, 3, 3], 1.0 / 27.0);
        let c = g.conv3d(p, k);
        let mut s = Session::new();
        let mut input = NdArray::<f64>::full(&[5, 5, 5], 10.0);
        input[&[2, 2, 2][..]] = 1000.0;
        let out = s.run(&g, &feed(&[(p, input)]), &[c]).unwrap();
        let center = out[0][&[2, 2, 2][..]];
        assert!(center < 60.0, "speckle smoothed: {center}");
        // Interior far from the speckle stays ~10.
        assert!(
            (out[0][&[0, 0, 0][..]] - 10.0 * 8.0 / 27.0).abs() < 1e-9,
            "border zero-padded"
        );
    }

    #[test]
    fn transpose_then_gather_selects_volumes() {
        // The real form of the paper's axis-3 filter workaround: transpose
        // the (x,y,z,v) tensor to (v,x,y,z), gather along axis 0, transpose
        // back — three full data-movement passes.
        let mut g = GraphBuilder::new();
        let p = g.placeholder(&[2, 2, 2, 4]);
        let vm = g.transpose(p, &[3, 0, 1, 2]);
        let sel = g.gather(vm, &[1, 3]);
        let back = g.transpose(sel, &[1, 2, 3, 0]);
        let mut s = Session::new();
        let input = NdArray::from_fn(&[2, 2, 2, 4], |ix| (ix[3] * 10 + ix[0]) as f64);
        let out = s.run(&g, &feed(&[(p, input.clone())]), &[back]).unwrap();
        assert_eq!(out[0].dims(), &[2, 2, 2, 2]);
        // Output volume 0 is input volume 1; volume 1 is input volume 3.
        assert_eq!(out[0][&[1, 0, 0, 0][..]], input[&[1, 0, 0, 1][..]]);
        assert_eq!(out[0][&[1, 0, 0, 1][..]], input[&[1, 0, 0, 3][..]]);
    }

    #[test]
    fn no_masked_assignment_op_exists() {
        // Compile-time property of the API surface: OpKind has no masked
        // scatter/assignment variant. This test documents the paper's
        // constraint; constructing a masked denoise therefore requires
        // whole-tensor arithmetic over the full volume.
        let names = [
            "Placeholder",
            "ReduceMean",
            "Gather",
            "ScalarOp",
            "Conv3d",
            "Transpose",
        ];
        assert_eq!(names.len(), 6);
    }
}
