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
//! This module is the workspace's **only** thread-spawn site (scilint rule
//! D004 enforces that inside parexec, sciflow F004 everywhere else); the
//! public `par_*` primitives in the crate root, the [`crate::pipeline`]
//! stage overlap and the engine analogs' executors are layers over it.

use crate::Parallelism;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many morsels the sizing policy aims to create per worker. A handful
/// per worker lets the claiming cursor absorb skew (a worker stuck on an
/// expensive morsel simply claims fewer), while keeping per-morsel dispatch
/// overhead negligible.
pub const MORSELS_PER_WORKER: usize = 4;

/// Caller-supplied cost hints that drive morsel auto-sizing.
///
/// `item_cost` is the estimated work per item in units where `1.0` means
/// "enough work to amortize one dispatch". Items cheaper than that get
/// grouped until a morsel is worth dispatching. `min_items` is a hard
/// granularity floor (e.g. one axis-0 plane for volume kernels) so a morsel
/// never cuts a unit the kernel wants to process whole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostHint {
    /// Estimated relative cost of one item (`1.0` = one dispatch's worth).
    pub item_cost: f64,
    /// Never cut a morsel smaller than this many items (the final remainder
    /// morsel may still be shorter).
    pub min_items: usize,
    /// Never cut a morsel larger than this many items; `0` = uncapped.
    /// The out-of-core path sets this from the memory budget so one
    /// morsel's working set (`max_items × item bytes`) fits each worker's
    /// budget share. When the cap conflicts with the granularity floor,
    /// the floor wins — a kernel's indivisible unit cannot be split.
    pub max_items: usize,
}

impl CostHint {
    /// Uniform unit-cost items with no granularity floor.
    pub fn uniform() -> CostHint {
        CostHint {
            item_cost: 1.0,
            min_items: 1,
            max_items: 0,
        }
    }

    /// Uniform items with a granularity floor of `n` items per morsel.
    pub fn min_items(n: usize) -> CostHint {
        CostHint {
            item_cost: 1.0,
            min_items: n.max(1),
            max_items: 0,
        }
    }

    /// Items with estimated relative cost `c` (see [`CostHint::item_cost`]).
    pub fn item_cost(c: f64) -> CostHint {
        CostHint {
            item_cost: c,
            min_items: 1,
            max_items: 0,
        }
    }

    /// This hint with morsels capped at `n` items (`0` = uncapped); see
    /// [`CostHint::max_items`].
    pub fn with_max_items(mut self, n: usize) -> CostHint {
        self.max_items = n;
        self
    }

    /// The effective minimum morsel length this hint implies: the explicit
    /// floor, or enough sub-unit-cost items to amortize one dispatch,
    /// whichever is larger.
    fn floor(&self) -> usize {
        let cost_floor = if self.item_cost > 0.0 && self.item_cost < 1.0 {
            (1.0 / self.item_cost).ceil() as usize
        } else {
            1
        };
        self.min_items.max(cost_floor).max(1)
    }
}

impl Default for CostHint {
    fn default() -> CostHint {
        CostHint::uniform()
    }
}

/// How morsels are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Self-scheduling: workers claim the next morsel from a shared atomic
    /// cursor as they go idle. This is the default and the skew-robust path.
    Morsel,
    /// Static contiguous block split (morsel `m` belongs to worker
    /// `m * workers / n_morsels`'s block). Exists as the baseline the skew
    /// benchmark and regression tests compare against.
    Static,
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
    let target = workers.max(1) * MORSELS_PER_WORKER;
    let mut len = n_items.div_ceil(target).max(hint.floor());
    if hint.max_items > 0 {
        // Budget cap: shorter morsels bound each worker's live working
        // set; the granularity floor still wins a conflict.
        len = len.min(hint.max_items).max(hint.floor());
    }
    (0..n_items.div_ceil(len))
        .map(|m| m * len..((m + 1) * len).min(n_items))
        .collect()
}

/// Per-run scheduling observability: who ran what, for how long.
///
/// The busy-time numbers come from per-morsel wall-clock measurement on the
/// claiming worker; they feed the skew benchmark and the cost model's
/// measured-scaling path but never influence results.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Schedule the run used.
    pub schedule: Schedule,
    /// Workers actually spawned (`min(par.workers(), n_morsels)`; 1 for the
    /// serial path, 0 when there was no work).
    pub workers: usize,
    /// Morsels claimed per worker.
    pub per_worker_morsels: Vec<usize>,
    /// Items processed per worker.
    pub per_worker_items: Vec<usize>,
    /// Summed per-morsel execution time per worker, in nanoseconds.
    pub per_worker_busy_nanos: Vec<u64>,
    /// Execution time of each morsel in nanoseconds, indexed by morsel id.
    pub per_morsel_nanos: Vec<u64>,
    /// Morsels executed by a worker other than the one a static block split
    /// would have assigned them to (always 0 under [`Schedule::Static`]).
    pub steals: usize,
}

impl PoolStats {
    /// Worker busy-time imbalance: max over mean (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .per_worker_busy_nanos
            .iter()
            .map(|&n| n as f64)
            .collect();
        imbalance_ratio(&busy)
    }

    /// Per-morsel costs as floats, for [`simulate_workers`] and the cost
    /// model's measured-scaling feedback.
    pub fn morsel_costs(&self) -> Vec<f64> {
        self.per_morsel_nanos.iter().map(|&n| n as f64).collect()
    }

    fn empty(schedule: Schedule) -> PoolStats {
        PoolStats {
            schedule,
            workers: 0,
            per_worker_morsels: Vec::new(),
            per_worker_items: Vec::new(),
            per_worker_busy_nanos: Vec::new(),
            per_morsel_nanos: Vec::new(),
            steals: 0,
        }
    }
}

/// Max-over-mean imbalance of per-worker loads. Empty or all-zero loads
/// count as perfectly balanced (1.0).
pub fn imbalance_ratio(per_worker: &[f64]) -> f64 {
    if per_worker.is_empty() {
        return 1.0;
    }
    let sum: f64 = per_worker.iter().sum();
    if sum <= 0.0 {
        return 1.0;
    }
    let mean = sum / per_worker.len() as f64;
    let max = per_worker.iter().cloned().fold(0.0f64, f64::max);
    max / mean
}

/// Deterministic equal-speed worker model of a schedule: given per-morsel
/// costs, return each worker's total load.
///
/// Under [`Schedule::Morsel`] this is greedy list scheduling in morsel
/// order — exactly what the atomic-cursor claim loop converges to when all
/// workers run at the same speed (the worker that finishes first claims the
/// next morsel). Under [`Schedule::Static`] each worker gets its contiguous
/// block. Used by the skew regression test and benchmark so the comparison
/// is reproducible even on preempted or single-core hosts.
pub fn simulate_workers(costs: &[f64], workers: usize, schedule: Schedule) -> Vec<f64> {
    let workers = workers.max(1).min(costs.len().max(1));
    let mut load = vec![0.0f64; workers];
    match schedule {
        Schedule::Morsel => {
            for &c in costs {
                let mut best = 0usize;
                for w in 1..workers {
                    if load[w] < load[best] {
                        best = w;
                    }
                }
                load[best] += c;
            }
        }
        Schedule::Static => {
            for (m, &c) in costs.iter().enumerate() {
                load[static_owner(m, costs.len(), workers)] += c;
            }
        }
    }
    load
}

/// The worker a static contiguous block split assigns morsel `m` to.
fn static_owner(m: usize, n_morsels: usize, workers: usize) -> usize {
    debug_assert!(m < n_morsels);
    // Worker w owns morsels [w*n/W, (w+1)*n/W); invert by scanning is O(W)
    // but this only runs in stats accounting, never on the data path.
    (0..workers)
        .find(|&w| m < ((w + 1) * n_morsels) / workers)
        .unwrap_or(workers - 1)
}

/// The morsel-driven scheduler: a [`Parallelism`] width, a [`CostHint`] that
/// sizes morsels, and a [`Schedule`] (dynamic claiming by default).
///
/// All public `par_*` primitives are wrappers over this type.
#[derive(Debug, Clone, Copy)]
pub struct MorselPool {
    par: Parallelism,
    hint: CostHint,
    schedule: Schedule,
}

impl MorselPool {
    /// Pool with uniform cost hints and dynamic morsel claiming.
    pub fn new(par: Parallelism) -> MorselPool {
        MorselPool {
            par,
            hint: CostHint::uniform(),
            schedule: Schedule::Morsel,
        }
    }

    /// Pool with an explicit cost hint.
    pub fn with_hint(par: Parallelism, hint: CostHint) -> MorselPool {
        MorselPool {
            par,
            hint,
            schedule: Schedule::Morsel,
        }
    }

    /// Same pool under a different schedule (the skew benchmark uses this
    /// to run the identical workload under static splits).
    pub fn with_schedule(mut self, schedule: Schedule) -> MorselPool {
        self.schedule = schedule;
        self
    }

    /// The fixed-order morsel partition this pool would use for `n_items`.
    pub fn ranges(&self, n_items: usize) -> Vec<Range<usize>> {
        morsel_ranges(n_items, self.par.workers(), self.hint)
    }

    /// Run `work(morsel_id, item_range)` over every morsel of `0..n_items`,
    /// returning per-morsel results in morsel order plus scheduling stats.
    ///
    /// This is the core primitive: results are pre-assigned to slots by
    /// morsel id, so any claim order produces the same output vector.
    pub fn map_ranges_with_stats<O, F>(&self, n_items: usize, work: F) -> (Vec<O>, PoolStats)
    where
        O: Send,
        F: Fn(usize, Range<usize>) -> O + Sync,
    {
        let morsels = self.ranges(n_items);
        if morsels.is_empty() {
            return (Vec::new(), PoolStats::empty(self.schedule));
        }
        let workers = self.par.workers().min(morsels.len());
        if workers <= 1 {
            return self.run_serial(&morsels, work);
        }
        self.run_threaded(&morsels, workers, work)
    }

    /// [`MorselPool::map_ranges_with_stats`] without the stats.
    pub fn map_ranges<O, F>(&self, n_items: usize, work: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize, Range<usize>) -> O + Sync,
    {
        self.map_ranges_with_stats(n_items, work).0
    }

    /// Map `f(index, item)` over `items`, results in input order, plus
    /// scheduling stats.
    pub fn map_with_stats<I, O, F>(&self, items: &[I], f: F) -> (Vec<O>, PoolStats)
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let (per_morsel, stats) = self.map_ranges_with_stats(items.len(), |_, range| {
            range.map(|i| f(i, &items[i])).collect::<Vec<O>>()
        });
        // Morsels partition 0..len in order, so flattening morsel outputs
        // in morsel order *is* input order.
        (per_morsel.into_iter().flatten().collect(), stats)
    }

    /// Map `f(index, item)` over `items`, results in input order.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        self.map_with_stats(items, f).0
    }

    /// Apply `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of
    /// `data` (the final chunk may be shorter), plus scheduling stats.
    ///
    /// Chunk boundaries depend only on `chunk_len`; a morsel is a contiguous
    /// run of whole chunks, so the work done per output element is identical
    /// at every parallelism level. Each chunk's disjoint `&mut` borrow is
    /// parked in a take-once slot that the claiming worker empties — no
    /// `unsafe`, and each slot's lock is taken exactly once.
    // scilint: allow(F001, chunk slots are claimed exactly once by the pool's ordered protocol; a double claim is a pool bug)
    pub fn chunks_mut_with_stats<T, F>(&self, data: &mut [T], chunk_len: usize, f: F) -> PoolStats
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let slots: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len)
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let (_, stats) = self.map_ranges_with_stats(slots.len(), |_, range| {
            for chunk_id in range {
                let chunk = slots[chunk_id]
                    .lock()
                    .expect("chunk slot lock")
                    .take()
                    .expect("each chunk claimed exactly once");
                f(chunk_id, chunk);
            }
        });
        stats
    }

    /// Map each item to a partial with `map`, then fold the partials in
    /// **item order** with `reduce` on the calling thread, starting from
    /// `init` — bit-identical at every width even for non-associative ops.
    pub fn reduce<I, A, M, R>(&self, items: &[I], map: M, init: A, reduce: R) -> A
    where
        I: Sync,
        A: Send,
        M: Fn(usize, &I) -> A + Sync,
        R: Fn(A, A) -> A,
    {
        self.map(items, map).into_iter().fold(init, reduce)
    }

    // scilint: allow(F002, per-morsel timing feeds scheduler stats only; results stay bit-identical regardless of timing)
    fn run_serial<O, F>(&self, morsels: &[Range<usize>], work: F) -> (Vec<O>, PoolStats)
    where
        O: Send,
        F: Fn(usize, Range<usize>) -> O + Sync,
    {
        let mut out = Vec::with_capacity(morsels.len());
        let mut per_morsel_nanos = Vec::with_capacity(morsels.len());
        let mut items = 0usize;
        for (m, range) in morsels.iter().enumerate() {
            let t0 = Instant::now();
            items += range.len();
            out.push(work(m, range.clone()));
            per_morsel_nanos.push(elapsed_nanos(t0));
        }
        let busy = per_morsel_nanos.iter().sum();
        let stats = PoolStats {
            schedule: self.schedule,
            workers: 1,
            per_worker_morsels: vec![morsels.len()],
            per_worker_items: vec![items],
            per_worker_busy_nanos: vec![busy],
            per_morsel_nanos,
            steals: 0,
        };
        (out, stats)
    }

    // scilint: allow(F001, every morsel produces exactly one result under the pool protocol; a hole is a pool bug)
    // scilint: allow(F002, per-morsel timing feeds scheduler stats only; results stay bit-identical regardless of timing)
    // scilint: allow(F003, clones a Range<usize> morsel descriptor, not a chunk payload)
    fn run_threaded<O, F>(
        &self,
        morsels: &[Range<usize>],
        workers: usize,
        work: F,
    ) -> (Vec<O>, PoolStats)
    where
        O: Send,
        F: Fn(usize, Range<usize>) -> O + Sync,
    {
        let n_morsels = morsels.len();
        let cursor = AtomicUsize::new(0);
        let schedule = self.schedule;
        let work = &work;
        let cursor = &cursor;
        type WorkerYield<O> = (Vec<(usize, O, u64)>, usize);
        let mut out: Vec<Option<O>> = Vec::new();
        out.resize_with(n_morsels, || None);
        let mut stats = PoolStats {
            schedule,
            workers,
            per_worker_morsels: vec![0; workers],
            per_worker_items: vec![0; workers],
            per_worker_busy_nanos: vec![0; workers],
            per_morsel_nanos: vec![0; n_morsels],
            steals: 0,
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || -> WorkerYield<O> {
                        let mut produced = Vec::new();
                        let mut items = 0usize;
                        // Static schedule: iterate the worker's own block.
                        // Morsel schedule: claim from the shared cursor.
                        let block = w * n_morsels / workers..(w + 1) * n_morsels / workers;
                        let mut next_static = block.start;
                        loop {
                            let m = match schedule {
                                Schedule::Morsel => cursor.fetch_add(1, Ordering::Relaxed),
                                Schedule::Static => {
                                    let m = next_static;
                                    next_static += 1;
                                    m
                                }
                            };
                            let done = match schedule {
                                Schedule::Morsel => m >= n_morsels,
                                Schedule::Static => m >= block.end,
                            };
                            if done {
                                break;
                            }
                            let range = morsels[m].clone();
                            items += range.len();
                            let t0 = Instant::now();
                            let value = work(m, range);
                            produced.push((m, value, elapsed_nanos(t0)));
                        }
                        (produced, items)
                    })
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((produced, items)) => {
                        stats.per_worker_morsels[w] = produced.len();
                        stats.per_worker_items[w] = items;
                        for (m, value, nanos) in produced {
                            if schedule == Schedule::Morsel
                                && static_owner(m, n_morsels, workers) != w
                            {
                                stats.steals += 1;
                            }
                            stats.per_worker_busy_nanos[w] += nanos;
                            stats.per_morsel_nanos[m] = nanos;
                            out[m] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let out = out
            .into_iter()
            .map(|v| v.expect("every morsel produced exactly once"))
            .collect();
        (out, stats)
    }
}

/// Run `on_thread` on a scoped worker thread while `on_caller` runs on the
/// calling thread; join and return both results (the worker's as a
/// `thread::Result` so the caller can re-raise its panic payload).
///
/// This is the spawn primitive behind [`crate::pipeline`]; it lives here so
/// the morsel module stays the crate's single thread-spawn site.
pub(crate) fn scoped_pair<A, B, FA, FB>(on_thread: FA, on_caller: FB) -> (std::thread::Result<A>, B)
where
    A: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B,
{
    std::thread::scope(|s| {
        let handle = s.spawn(on_thread);
        let b = on_caller();
        (handle.join(), b)
    })
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
            (1000, 8, CostHint::item_cost(0.01)), // cheap items coarsen
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
            let floor = hint.floor().min(n);
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
        // budget cap of 50 shortens them (more, smaller morsels).
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
    fn cheap_items_get_coarser_morsels() {
        // 1000 items at cost 0.01 need >= 100 items per morsel.
        let ranges = morsel_ranges(1000, 8, CostHint::item_cost(0.01));
        for r in &ranges[..ranges.len() - 1] {
            assert!(r.len() >= 100, "{r:?}");
        }
    }

    #[test]
    fn map_ranges_is_bit_identical_across_widths_and_schedules() {
        // The partition is a pure function of (n, workers, hint), so each
        // pool's per-morsel output must equal a serial replay of its *own*
        // ranges no matter which worker claimed what — and the stitched
        // item-order map must be bit-identical to the serial pool at every
        // width and schedule.
        let items: Vec<f64> = (0..97).map(|i| (i as f64).sin()).collect();
        let f = |i: usize, x: &f64| (x * 1.000_001 + i as f64).abs().sqrt();
        let serial_bits: Vec<u64> = MorselPool::new(Parallelism::Serial)
            .map(&items, f)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for workers in [1usize, 2, 4, 8] {
            for schedule in [Schedule::Morsel, Schedule::Static] {
                let pool = MorselPool::new(Parallelism::threads(workers)).with_schedule(schedule);
                let expect: Vec<(usize, usize, usize, usize)> = pool
                    .ranges(97)
                    .into_iter()
                    .enumerate()
                    .map(|(m, r)| (m, r.start, r.end, r.map(|i| i * i).sum::<usize>()))
                    .collect();
                let got = pool.map_ranges(97, |m, r| {
                    (m, r.start, r.end, r.map(|i| i * i).sum::<usize>())
                });
                assert_eq!(got, expect, "workers={workers} schedule={schedule:?}");
                let bits: Vec<u64> = pool.map(&items, f).iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, serial_bits, "workers={workers} schedule={schedule:?}");
            }
        }
    }

    #[test]
    fn stats_account_every_morsel_once() {
        let pool = MorselPool::new(Parallelism::threads(4));
        let (out, stats) = pool.map_ranges_with_stats(64, |_, r| r.len());
        assert_eq!(out.iter().sum::<usize>(), 64);
        assert_eq!(stats.per_worker_morsels.iter().sum::<usize>(), out.len());
        assert_eq!(stats.per_worker_items.iter().sum::<usize>(), 64);
        assert_eq!(stats.per_morsel_nanos.len(), out.len());
        assert!(stats.workers >= 1 && stats.workers <= 4);
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn static_schedule_never_steals() {
        let pool = MorselPool::new(Parallelism::threads(4)).with_schedule(Schedule::Static);
        let (_, stats) = pool.map_ranges_with_stats(64, |_, r| r.len());
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn imbalance_ratio_edges() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance_ratio(&[1.0, 1.0, 1.0]), 1.0);
        assert!((imbalance_ratio(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn simulation_matches_block_math_and_balances_skew() {
        // One heavy morsel among uniform ones: static blocks pile the heavy
        // morsel plus its block-mates on one worker; greedy claiming gives
        // the heavy worker nothing else.
        let mut costs = vec![1.0f64; 16];
        costs[0] = 10.0;
        let st = simulate_workers(&costs, 4, Schedule::Static);
        let dy = simulate_workers(&costs, 4, Schedule::Morsel);
        assert_eq!(st.len(), 4);
        assert_eq!(st[0], 10.0 + 3.0, "block 0 holds the heavy morsel");
        assert!(imbalance_ratio(&dy) < imbalance_ratio(&st));
        // Totals conserved under both schedules.
        let total: f64 = costs.iter().sum();
        assert!((st.iter().sum::<f64>() - total).abs() < 1e-9);
        assert!((dy.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn static_owner_covers_blocks() {
        for (n, w) in [(16usize, 4usize), (7, 3), (5, 8), (1, 1)] {
            let w_eff = w.min(n);
            let mut counts = vec![0usize; w_eff];
            for m in 0..n {
                counts[static_owner(m, n, w_eff)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn scoped_pair_runs_both_sides() {
        let (a, b) = scoped_pair(|| 6 * 7, || "caller");
        assert_eq!(a.expect("worker ok"), 42);
        assert_eq!(b, "caller");
    }
}
