#![warn(missing_docs)]

//! # parexec — safe, zero-dependency data-parallel runtime
//!
//! Intra-node parallelism for the `sciops` kernels: the expensive per-voxel
//! and per-pixel loops (non-local-means denoising, tensor fitting,
//! sigma-clipped co-addition, background meshes) are embarrassingly parallel
//! across *slabs* — contiguous row-major runs of the output buffer. This
//! crate provides the two primitives those kernels need:
//!
//! * [`par_chunks_mut`] — run a function over disjoint mutable chunks of a
//!   buffer (each chunk is one slab of the output).
//! * [`par_map_slabs`] — map a function over a slice of items, collecting
//!   the results in input order.
//!
//! Both are thin wrappers over the [`MorselPool`] scheduler; kernels that
//! must not split a unit (one plane, one partition) use the pool directly
//! with a [`CostHint`] (see [`MorselPool::map_ranges`]). The pool is the
//! workspace's one concurrency primitive: kernels, engine executors and
//! ingest decode all run on it.
//!
//! ## Determinism
//!
//! Every primitive produces results that are bit-identical regardless of
//! the worker count *and* of the scheduler's claim order:
//!
//! * Slab and morsel boundaries are fixed by the caller's chunk size, the
//!   item count and the [`CostHint`] — never by runtime timing — so each
//!   output element is computed by exactly the same code over exactly the
//!   same inputs at any [`Parallelism`].
//! * Workers claim morsels dynamically from a shared atomic cursor, but
//!   every morsel's result is written into its pre-assigned slot: the
//!   schedule decides *who* computes a morsel, never *what* is computed or
//!   *where* it lands.
//!
//! ## Safety
//!
//! No `unsafe` (the workspace lint wall denies it): mutable-buffer sharing
//! uses `slice::chunks_mut` to obtain disjoint `&mut [T]` borrows parked in
//! take-once slots, and [`std::thread::scope`] makes borrowing from the
//! caller's stack sound. All thread spawning in the workspace is the
//! [`MorselPool`] claim loop's one `spawn` call (`morsel.rs`, the single
//! sanctioned spawn site, enforced by scilint rules D004 and F004). A panic
//! in any worker is re-raised on the calling thread with its original
//! payload.

use std::num::NonZeroUsize;

mod morsel;

pub use morsel::{morsel_ranges, simulate_workers, CostHint, MorselPool, MORSELS_PER_WORKER};

/// Environment variable overriding [`Parallelism::auto`]'s worker count
/// (the criterion kernel benches size their `_par` runs with it).
pub const THREADS_ENV: &str = "SCIBENCH_THREADS";

/// Upper bound on the worker count accepted from user input (CLI flags and
/// the [`THREADS_ENV`] variable). Far above any sane node size; exists so a
/// typo cannot ask the OS for a million threads.
pub const MAX_THREADS: usize = 256;

/// How many workers a parallel primitive may use.
///
/// `Serial` runs entirely on the calling thread with no scope setup, so
/// kernels keep their original single-threaded execution as a directly
/// assertable baseline. `Threads(1)` runs the same way: any width-1 pool
/// stays on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Run on the calling thread (the reference single-threaded path).
    Serial,
    /// Run on up to this many worker threads.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// `Threads(n)`, asserting `n >= 1`. Caller-facing code (CLI flags)
    /// should validate first; see [`parse_threads`].
    pub fn threads(n: usize) -> Parallelism {
        assert!(n >= 1, "thread count must be >= 1");
        Parallelism::Threads(NonZeroUsize::new(n.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// The available parallelism of the host, honoring the
    /// [`THREADS_ENV`] override when set to a valid count.
    pub fn auto() -> Parallelism {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = parse_threads(&v) {
                return n;
            }
        }
        let n = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism::threads(n)
    }

    /// Number of workers this setting uses (`Serial` → 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.get(),
        }
    }
}

/// Parse a user-supplied thread count (CLI flag or [`THREADS_ENV`]):
/// an integer in `1..=MAX_THREADS`, with `1` mapping to `Serial`.
pub fn parse_threads(s: &str) -> Result<Parallelism, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".into()),
        Ok(n) if n > MAX_THREADS => Err(format!("thread count {n} exceeds the cap {MAX_THREADS}")),
        Ok(1) => Ok(Parallelism::Serial),
        Ok(n) => Ok(Parallelism::threads(n)),
        Err(_) => Err(format!("invalid thread count {s:?}")),
    }
}

/// Apply `f(slab_index, slab)` to every `chunk_len`-sized slab of `data`
/// (the final slab may be shorter), using up to `par.workers()` threads.
///
/// Slab boundaries depend only on `chunk_len`, so the work done per output
/// element is identical at every parallelism level; slabs are grouped into
/// morsels that workers claim dynamically (see [`MorselPool`]). Panics in
/// `f` propagate to the caller.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, par: Parallelism, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    MorselPool::new(par).chunks_mut(data, chunk_len, f);
}

/// Map `f(index, item)` over `items`, returning results in input order.
///
/// Items are grouped into fixed-order morsels that workers claim from a
/// shared cursor; each morsel's results land in pre-assigned slots, so the
/// output order (and therefore any order-sensitive consumer) is independent
/// of the worker count and of the claim order.
pub fn par_map_slabs<I, O, F>(items: &[I], par: Parallelism, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    MorselPool::new(par).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_workers() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::threads(4).workers(), 4);
    }

    #[test]
    #[should_panic(expected = "thread count must be >= 1")]
    fn zero_threads_panics() {
        let _ = Parallelism::threads(0);
    }

    #[test]
    fn parse_threads_validates() {
        assert_eq!(parse_threads("1").unwrap(), Parallelism::Serial);
        assert_eq!(parse_threads("8").unwrap(), Parallelism::threads(8));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-3").is_err());
        assert!(parse_threads("four").is_err());
        assert!(parse_threads(&format!("{}", MAX_THREADS + 1)).is_err());
        assert_eq!(
            parse_threads(&format!("{MAX_THREADS}")).unwrap().workers(),
            MAX_THREADS
        );
    }

    #[test]
    fn auto_honors_env_override() {
        // Serialized by Rust's test harness only within this module; use a
        // process-unique scope by setting and restoring around the call.
        let prev = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Parallelism::auto().workers(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Parallelism::auto().workers() >= 1);
        match prev {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn chunks_mut_empty_input_is_noop() {
        let mut data: Vec<u64> = Vec::new();
        par_chunks_mut(&mut data, 4, Parallelism::threads(8), |_, _| {
            panic!("must not be called")
        });
    }

    #[test]
    fn chunks_mut_single_slab() {
        let mut data = vec![0u64; 3];
        par_chunks_mut(&mut data, 10, Parallelism::threads(8), |i, chunk| {
            assert_eq!(i, 0);
            for v in chunk.iter_mut() {
                *v = 7;
            }
        });
        assert_eq!(data, vec![7, 7, 7]);
    }

    #[test]
    fn chunks_mut_more_threads_than_slabs() {
        let mut data = vec![0usize; 10];
        par_chunks_mut(&mut data, 4, Parallelism::threads(64), |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn chunks_mut_matches_serial_at_every_width() {
        let reference: Vec<usize> = {
            let mut d = vec![0usize; 103];
            par_chunks_mut(&mut d, 7, Parallelism::Serial, |i, c| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = i * 1000 + k;
                }
            });
            d
        };
        for workers in [1usize, 2, 3, 4, 8, 17] {
            let mut d = vec![0usize; 103];
            par_chunks_mut(&mut d, 7, Parallelism::threads(workers), |i, c| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = i * 1000 + k;
                }
            });
            assert_eq!(d, reference, "workers={workers}");
        }
    }

    #[test]
    fn panic_in_worker_propagates_payload() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 16];
            par_chunks_mut(&mut data, 2, Parallelism::threads(4), |i, _| {
                if i == 5 {
                    panic!("slab 5 exploded");
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(msg.contains("slab 5 exploded"), "payload was {msg:?}");
    }

    #[test]
    fn map_slabs_empty_and_order() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_slabs(&empty, Parallelism::threads(4), |_, &x| x).is_empty());
        let items: Vec<u32> = (0..57).collect();
        for workers in [1usize, 2, 5, 8, 100] {
            let out = par_map_slabs(&items, Parallelism::threads(workers), |i, &x| {
                (i as u32) * 2 + x
            });
            let expect: Vec<u32> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_slabs_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_slabs(&items, Parallelism::threads(3), |_, &x| {
                assert!(x != 6, "item 6 rejected");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn width_one_pools_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        for par in [Parallelism::Serial, Parallelism::threads(1)] {
            let pool = MorselPool::new(par);
            let items: Vec<u32> = (0..64).collect();
            let out = pool.map(&items, |_, &x| {
                on_caller();
                x
            });
            assert_eq!(out, items, "{par:?}");
            let morsels = pool.map_ranges(64, |_, r| {
                on_caller();
                r.len()
            });
            assert_eq!(morsels.len(), MORSELS_PER_WORKER, "{par:?}");
            let mut data = vec![0u8; 64];
            pool.chunks_mut(&mut data, 4, |_, chunk| {
                on_caller();
                chunk.fill(1);
            });
            assert!(data.iter().all(|&b| b == 1), "{par:?}");
        }
    }
}
