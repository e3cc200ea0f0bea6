//! Morsel-driven deterministic work scheduler.
//!
//! Work is split into **morsels** — fixed-order contiguous index ranges
//! whose boundaries depend only on the item count, the worker count and the
//! caller's [`CostHint`], never on runtime timing. Workers claim morsels by
//! bumping a shared atomic cursor (self-scheduling: every idle worker
//! "steals" the next morsel from the single global queue), and every
//! morsel's output lands in its pre-assigned slot. Claim order therefore
//! affects *who* computes a morsel but never *what* is computed or *where*
//! the result goes, which is the whole determinism argument: output is
//! bit-identical to the serial scan at any worker count.
//!
//! This module is the workspace's **only** thread-spawn site, and
//! `run_threaded` its one `spawn` call (scilint rule D004 enforces that
//! inside parexec, sciflow F004 everywhere else); the public `par_*`
//! primitives in the crate root and the engine analogs' executors are
//! layers over it.

use crate::Parallelism;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many morsels the sizing policy aims to create per worker. A handful
/// per worker lets the claiming cursor absorb skew (a worker stuck on an
/// expensive morsel simply claims fewer), while keeping per-morsel dispatch
/// overhead negligible.
pub const MORSELS_PER_WORKER: usize = 4;

/// Caller-supplied bounds on morsel length.
///
/// `min_items` is a hard granularity floor (e.g. one axis-0 plane for
/// volume kernels) so a morsel never cuts a unit the kernel wants to
/// process whole; `max_items` caps the length from above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    /// Never cut a morsel smaller than this many items (the final remainder
    /// morsel may still be shorter).
    pub min_items: usize,
    /// Never cut a morsel larger than this many items; `0` = uncapped.
    /// Spark's task runner and `scibench-suite`'s serve workload set it to
    /// 1 so every partition or session is a morsel of its own. When the cap
    /// conflicts with the granularity floor, the floor wins — a kernel's
    /// indivisible unit cannot be split.
    pub max_items: usize,
}

impl CostHint {
    /// No granularity floor and no cap.
    pub fn uniform() -> CostHint {
        CostHint::min_items(1)
    }

    /// A granularity floor of `n` items per morsel.
    pub fn min_items(n: usize) -> CostHint {
        CostHint {
            min_items: n.max(1),
            max_items: 0,
        }
    }

    /// This hint with morsels capped at `n` items (`0` = uncapped); see
    /// [`CostHint::max_items`].
    pub fn with_max_items(mut self, n: usize) -> CostHint {
        self.max_items = n;
        self
    }
}

/// Partition `0..n_items` into fixed-order morsels.
///
/// Policy (generalizing what the DTM kernel used to hand-roll): aim for
/// [`MORSELS_PER_WORKER`] morsels per worker so claiming can balance skew,
/// but never cut below the hint's granularity floor — tiny morsels make
/// dispatch and per-morsel allocations dominate the actual work, which is
/// how fine-grained splits scale *below* 1.0x. The ranges partition
/// `0..n_items` exactly and in order, so stitching morsel outputs back
/// together is bit-identical to a serial scan regardless of `workers` or
/// claim order.
pub fn morsel_ranges(n_items: usize, workers: usize, hint: CostHint) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let floor = hint.min_items.max(1);
    let target = workers.max(1) * MORSELS_PER_WORKER;
    let mut len = n_items.div_ceil(target).max(floor);
    if hint.max_items > 0 {
        // Cap: shorter morsels, but the granularity floor wins a conflict.
        len = len.min(hint.max_items).max(floor);
    }
    (0..n_items.div_ceil(len))
        .map(|m| m * len..((m + 1) * len).min(n_items))
        .collect()
}

/// Deterministic equal-speed model of the claim loop: given per-morsel
/// costs, return each worker's total load.
///
/// This is greedy list scheduling in morsel order — what the atomic-cursor
/// claim loop converges to when all workers run at the same speed (the
/// worker that finishes first claims the next morsel). The cost model's
/// predicted scaling curve and the skew benchmark's imbalance gate use it,
/// so both are reproducible even on preempted or single-core hosts.
pub fn simulate_workers(costs: &[f64], workers: usize) -> Vec<f64> {
    let workers = workers.max(1).min(costs.len().max(1));
    let mut load = vec![0.0f64; workers];
    for &c in costs {
        let mut best = 0usize;
        for w in 1..workers {
            if load[w] < load[best] {
                best = w;
            }
        }
        load[best] += c;
    }
    load
}

/// The morsel-driven scheduler: a [`Parallelism`] width and a [`CostHint`]
/// that sizes morsels.
///
/// All public `par_*` primitives are wrappers over this type.
#[derive(Debug, Clone, Copy)]
pub struct MorselPool {
    par: Parallelism,
    hint: CostHint,
}

impl MorselPool {
    /// Pool with no granularity floor and no cap.
    pub fn new(par: Parallelism) -> MorselPool {
        MorselPool::with_hint(par, CostHint::uniform())
    }

    /// Pool with an explicit cost hint.
    pub fn with_hint(par: Parallelism, hint: CostHint) -> MorselPool {
        MorselPool { par, hint }
    }

    /// Run `work(morsel_id, item_range)` over every morsel of `0..n_items`,
    /// returning per-morsel results in morsel order.
    ///
    /// This is the core primitive: results are pre-assigned to slots by
    /// morsel id, so any claim order produces the same output vector. A
    /// width-1 pool (or a single morsel) runs on the calling thread.
    pub fn map_ranges<O, F>(&self, n_items: usize, work: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize, Range<usize>) -> O + Sync,
    {
        let morsels = morsel_ranges(n_items, self.par.workers(), self.hint);
        let workers = self.par.workers().min(morsels.len());
        if workers <= 1 {
            return morsels
                .into_iter()
                .enumerate()
                .map(|(m, range)| work(m, range))
                .collect();
        }
        run_threaded(&morsels, workers, work)
    }

    /// Map `f(index, item)` over `items`, results in input order.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let per_morsel = self.map_ranges(items.len(), |_, range| {
            range.map(|i| f(i, &items[i])).collect::<Vec<O>>()
        });
        // Morsels partition 0..len in order, so flattening morsel outputs
        // in morsel order *is* input order.
        per_morsel.into_iter().flatten().collect()
    }

    /// Apply `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of
    /// `data` (the final chunk may be shorter).
    ///
    /// Chunk boundaries depend only on `chunk_len`; a morsel is a contiguous
    /// run of whole chunks, so the work done per output element is identical
    /// at every parallelism level. Each chunk's disjoint `&mut` borrow is
    /// parked in a take-once slot that the claiming worker empties — no
    /// `unsafe`, and each slot's lock is taken exactly once.
    // scilint: allow(F001, chunk slots are claimed exactly once by the pool's ordered protocol; a double claim is a pool bug)
    pub fn chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let slots: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len)
            .map(|c| Mutex::new(Some(c)))
            .collect();
        self.map_ranges(slots.len(), |_, range| {
            for chunk_id in range {
                let chunk = slots[chunk_id]
                    .lock()
                    .expect("chunk slot lock")
                    .take()
                    .expect("each chunk claimed exactly once");
                f(chunk_id, chunk);
            }
        });
    }
}

/// The claim loop: `workers` scoped threads bump one shared cursor until
/// the morsels run out, and each result lands in its morsel's slot.
// scilint: allow(F001, every morsel produces exactly one result under the pool protocol; a hole is a pool bug)
fn run_threaded<O, F>(morsels: &[Range<usize>], workers: usize, work: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize, Range<usize>) -> O + Sync,
{
    let cursor = AtomicUsize::new(0);
    let (work, cursor) = (&work, &cursor);
    let mut out: Vec<Option<O>> = Vec::new();
    out.resize_with(morsels.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut produced = Vec::new();
                    loop {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = morsels.get(m) else {
                            return produced;
                        };
                        produced.push((m, work(m, range.clone())));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (m, value) in produced {
                        out[m] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every morsel produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_exactly_and_in_order() {
        for (n, workers, hint) in [
            (103usize, 4usize, CostHint::uniform()),
            (103, 1, CostHint::uniform()),
            (45, 8, CostHint::min_items(9)),
            (4096, 2, CostHint::min_items(64)),
            (7, 4, CostHint::min_items(9)), // smaller than one floor unit
            (1, 16, CostHint::uniform()),
        ] {
            let ranges = morsel_ranges(n, workers, hint);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous and ordered");
                assert!(r.end > r.start, "non-empty");
                next = r.end;
            }
            assert_eq!(next, n, "covers every item");
            // Floor: every morsel but the last respects the granularity.
            let floor = hint.min_items.min(n);
            for r in &ranges[..ranges.len().saturating_sub(1)] {
                assert!(r.len() >= floor, "{r:?} finer than floor {floor}");
            }
            // Ceiling: dispatch count stays within morsels-per-worker.
            assert!(ranges.len() <= workers.max(1) * MORSELS_PER_WORKER);
        }
        assert!(morsel_ranges(0, 4, CostHint::uniform()).is_empty());
    }

    #[test]
    fn max_items_caps_morsel_length_but_floor_wins() {
        // 1000 items over 2 workers would make 125-item morsels; a
        // cap of 50 shortens them (more, smaller morsels).
        let capped = morsel_ranges(1000, 2, CostHint::uniform().with_max_items(50));
        assert!(capped.iter().all(|r| r.len() <= 50));
        let mut next = 0usize;
        for r in &capped {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 1000, "cap never loses items");
        // The kernel's indivisible unit beats the cap.
        let floored = morsel_ranges(1000, 2, CostHint::min_items(200).with_max_items(50));
        for r in &floored[..floored.len() - 1] {
            assert!(r.len() >= 200, "{r:?}");
        }
        // Zero cap = uncapped.
        assert_eq!(
            morsel_ranges(1000, 2, CostHint::uniform().with_max_items(0)),
            morsel_ranges(1000, 2, CostHint::uniform())
        );
    }

    #[test]
    fn map_ranges_is_bit_identical_across_widths() {
        // The partition is a pure function of (n, workers, hint), so each
        // pool's per-morsel output must equal a serial replay of its *own*
        // ranges no matter which worker claimed what — and the stitched
        // item-order map must be bit-identical to the serial pool at every
        // width.
        let items: Vec<f64> = (0..97).map(|i| (i as f64).sin()).collect();
        let f = |i: usize, x: &f64| (x * 1.000_001 + i as f64).abs().sqrt();
        let serial_bits: Vec<u64> = MorselPool::new(Parallelism::Serial)
            .map(&items, f)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = MorselPool::new(Parallelism::threads(workers));
            let expect: Vec<(usize, usize, usize, usize)> =
                morsel_ranges(97, workers, CostHint::uniform())
                    .into_iter()
                    .enumerate()
                    .map(|(m, r)| (m, r.start, r.end, r.map(|i| i * i).sum::<usize>()))
                    .collect();
            let got = pool.map_ranges(97, |m, r| {
                (m, r.start, r.end, r.map(|i| i * i).sum::<usize>())
            });
            assert_eq!(got, expect, "workers={workers}");
            let bits: Vec<u64> = pool.map(&items, f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, serial_bits, "workers={workers}");
        }
    }

    #[test]
    fn every_morsel_runs_exactly_once() {
        for workers in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            let calls = AtomicUsize::new(0);
            let pool = MorselPool::new(Parallelism::threads(workers));
            let lens = pool.map_ranges(64, |_, r| {
                calls.fetch_add(1, Ordering::Relaxed);
                for i in r.clone() {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
                r.len()
            });
            let morsels = morsel_ranges(64, workers, CostHint::uniform()).len();
            assert_eq!(calls.load(Ordering::Relaxed), morsels, "workers={workers}");
            assert_eq!(lens.len(), morsels, "workers={workers}");
            assert_eq!(lens.iter().sum::<usize>(), 64, "workers={workers}");
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers={workers}: an item ran twice or never"
            );
        }
    }

    #[test]
    fn simulation_gives_the_hot_morsel_a_worker_of_its_own() {
        // One heavy morsel among uniform ones: greedy claiming leaves the
        // worker that took it idle for the rest of the queue.
        let mut costs = vec![1.0f64; 16];
        costs[0] = 10.0;
        let load = simulate_workers(&costs, 4);
        assert_eq!(load, vec![10.0, 5.0, 5.0, 5.0]);
        // Never more workers than morsels; an empty profile is one idle
        // worker.
        assert_eq!(simulate_workers(&[2.0, 3.0], 8), vec![2.0, 3.0]);
        assert_eq!(simulate_workers(&[], 4), vec![0.0]);
    }
}
