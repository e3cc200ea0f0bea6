//! The one-client closed loop the batch workloads share: run an op, time
//! it, check its output outside the timed span, repeat.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::trace::{OpenOp, Tracer};

/// One pipeline variant: its name, the span around its call, and the
/// per-layer metric holding its median time.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Variant name.
    pub name: &'static str,
    /// Span name: the crate the call enters, then the variant.
    pub span: &'static str,
    /// Per-layer metric with the span's median duration.
    pub metric: &'static str,
}

/// The Spark analog.
pub const SPARK: Variant = Variant {
    name: "spark",
    span: "engine-rdd.spark",
    metric: "engine-rdd.spark_ms_p50",
};
/// The Myria analog.
pub const MYRIA: Variant = Variant {
    name: "myria",
    span: "engine-rel.myria",
    metric: "engine-rel.myria_ms_p50",
};
/// The Dask analog.
pub const DASK: Variant = Variant {
    name: "dask",
    span: "engine-taskgraph.dask",
    metric: "engine-taskgraph.dask_ms_p50",
};
/// The TensorFlow analog.
pub const TENSORFLOW: Variant = Variant {
    name: "tensorflow",
    span: "engine-dataflow.tensorflow",
    metric: "engine-dataflow.tensorflow_ms_p50",
};
/// The SciDB analog.
pub const SCIDB: Variant = Variant {
    name: "scidb",
    span: "engine-array.scidb",
    metric: "engine-array.scidb_ms_p50",
};
/// The native reference pipeline at two threads.
pub const NATIVE: Variant = Variant {
    name: "native",
    span: "sciops.native",
    metric: "sciops.native_ms_p50",
};

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// After this long, at the next whole cycle of the op sequence, so
    /// every run measures the same mix of inputs and variants.
    Time(Duration),
    /// After exactly this many ops.
    Ops(usize),
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Op index within its loop.
    pub k: usize,
    /// Which variant ran.
    pub variant: &'static str,
    /// Wall time of the op (the output check excluded).
    pub ms: f64,
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Every op, in order.
    pub samples: Vec<Sample>,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Ops whose output was wrong.
    pub wrong: usize,
    /// Wall time of the whole loop, checks included.
    pub wall_s: f64,
}

impl LoopOut {
    /// Op latencies of one variant (all variants when `None`).
    pub fn latencies(&self, variant: Option<&str>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| variant.is_none_or(|v| s.variant == v))
            .map(|s| s.ms)
            .collect()
    }
}

/// Text of a panic payload.
pub fn panic_text(p: &(dyn Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run ops `0, 1, 2, ...` until `window` closes. `run(k, op_span)` is
/// timed (and traced under the op's root span); `check(k, output)` runs
/// after the clock stops. A panicking op or a failed check is recorded,
/// never fatal: the loop moves on to the next op.
pub fn closed_loop<O>(
    window: Window,
    cycle: usize,
    tracer: &Tracer,
    variant: impl Fn(usize) -> &'static str,
    mut run: impl FnMut(usize, &OpenOp) -> O,
    mut check: impl FnMut(usize, O) -> Result<(), String>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let start = Instant::now();
    for k in 0.. {
        let done = match window {
            Window::Time(d) => k % cycle == 0 && start.elapsed() >= d,
            Window::Ops(n) => k >= n,
        };
        if done {
            break;
        }
        let open = tracer.open_op(k, || None);
        let result = catch_unwind(AssertUnwindSafe(|| run(k, &open)));
        let ms = tracer.close_op(open, || None);
        let name = variant(k);
        match result {
            Ok(output) => {
                if let Err(why) = check(k, output) {
                    out.wrong += 1;
                    out.failures
                        .push(format!("op {k} ({name}): wrong output: {why}"));
                }
            }
            Err(p) => out.failures.push(format!(
                "op {k} ({name}): panicked: {}",
                panic_text(p.as_ref())
            )),
        }
        out.samples.push(Sample {
            k,
            variant: name,
            ms,
        });
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Compare `got` with `want` element-wise within `tol`.
pub fn close(
    what: &str,
    got: &marray::NdArray<f64>,
    want: &marray::NdArray<f64>,
    tol: f64,
) -> Result<(), String> {
    if got.dims() != want.dims() {
        return Err(format!(
            "{what}: dims {:?} vs {:?}",
            got.dims(),
            want.dims()
        ));
    }
    let worst = crate::util::max_abs_diff(got.data(), want.data());
    if worst <= tol {
        Ok(())
    } else {
        Err(format!("{what}: max abs diff {worst:e} exceeds {tol:e}"))
    }
}

/// Compare `got` with `want` bit for bit.
pub fn identical(
    what: &str,
    got: &marray::NdArray<f64>,
    want: &marray::NdArray<f64>,
) -> Result<(), String> {
    let same = got.dims() == want.dims()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("{what}: not bit-identical to the serial reference"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_recorded_and_the_loop_continues() {
        let t = Tracer::new(false);
        let out = closed_loop(
            Window::Ops(4),
            2,
            &t,
            |k| if k % 2 == 0 { "even" } else { "odd" },
            |k, _| {
                assert!(k != 1, "op one blows up");
                k
            },
            |k, v| {
                if k == 3 {
                    Err(format!("{v} is wrong"))
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(out.samples.len(), 4);
        assert_eq!(out.wrong, 1);
        assert_eq!(out.failures.len(), 2);
        assert!(out.failures[0].contains("panicked: op one blows up"));
        assert!(out.failures[1].contains("wrong output: 3 is wrong"));
        assert_eq!(out.latencies(Some("odd")).len(), 2);
    }

    #[test]
    fn timed_windows_end_on_a_whole_cycle() {
        let t = Tracer::new(false);
        let out = closed_loop(
            Window::Time(Duration::ZERO),
            3,
            &t,
            |_| "v",
            |_, _| (),
            |_, ()| Ok(()),
        );
        assert_eq!(out.samples.len(), 0);
        let out = closed_loop(
            Window::Time(Duration::from_millis(5)),
            3,
            &t,
            |_| "v",
            |_, _| std::thread::sleep(Duration::from_millis(1)),
            |_, ()| Ok(()),
        );
        assert!(!out.samples.is_empty() && out.samples.len() % 3 == 0);
    }
}
