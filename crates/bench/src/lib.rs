//! Library side of the bench crate. The substance lives in the binaries —
//! `reproduce` (regenerate every table/figure; `--calibrated` calibrates
//! the kernel costs first) and `scibench` (the `lint` static-verification
//! sweep plus the `bench` harnesses) — and in `scibench-core`; this library
//! holds the shared kernel-benchmark cases ([`kernels`]), the end-to-end
//! copy-accounting harness ([`e2e`]), the scheduler-skew harness
//! ([`skew`]), the chunk-compression harness ([`compress`]), the
//! out-of-core spill-tier harness ([`ooc`]), the resident-service replay
//! harness ([`serve`]), and lets `cargo bench` targets link against the
//! crate.

pub mod compress;
pub mod e2e;
pub mod hostinfo;
pub mod kernels;
pub mod memo;
pub mod ooc;
pub mod plans;
pub mod serve;
pub mod skew;
