//! The runtime half of the certifier: a fingerprint-keyed memo table.
//!
//! Keys are the canonical node fingerprints of
//! [`plancheck::node_fingerprints`]; values are whatever payload the
//! caller produces — in the engines that is an
//! [`marray::NdArray`](marray) whose `clone` is a reference-count bump on
//! the shared [`marray::ChunkBuf`], so both storing a computed result and
//! serving a hit move **zero payload bytes** (verified by the
//! `CopyCounter` in this crate's tests).
//!
//! The table enforces the certifier's gate at the API: every probe states
//! whether the static certificate covers the key, and uncertified probes
//! always recompute and never populate the table. There is no way to
//! insert a value without asserting certification, so an unsound node can
//! never be served stale results even if its fingerprint collides with
//! nothing.
//!
//! Two residency policies coexist:
//!
//! * an unbounded table ([`MemoTable::new`]) — every certified result
//!   stays resident, the mode the single-process sweeps use;
//! * a byte-budgeted table ([`MemoTable::with_budget`]) — each admitted
//!   entry declares a weight, and admission evicts least-recently-used
//!   entries until the total weight fits the budget again. Eviction is a
//!   capacity decision, never a soundness one: an evicted key simply
//!   recomputes (and re-admits) on its next certified probe.
//!
//! The table is probed through `&self` behind a poisoning-safe mutex: the
//! resident query service serves many concurrent requests against one
//! process-wide table, and the `lint --memo` replay uses the same type
//! from one thread. The `compute` closure runs *outside* the lock, so a
//! slow recompute never blocks other keys; two threads racing the same
//! cold key may both compute, but the workspace determinism contract
//! makes their values bit-identical, so whichever admission lands first
//! is indistinguishable from the other.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cache traffic counters, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Probes served from the table.
    pub hits: u64,
    /// Certified probes that computed and populated the table.
    pub misses: u64,
    /// Uncertified probes: computed, never stored, never served.
    pub bypasses: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Total declared weight of the evicted entries.
    pub evicted_bytes: u64,
}

/// How one probe was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Served from the table (a clone of the resident value).
    Hit,
    /// Computed and admitted (the probe was certified).
    Miss,
    /// Computed and discarded (the probe was uncertified).
    Bypass,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: u64,
    last_used: u64,
}

/// The table's state, guarded by [`MemoTable`]'s mutex.
#[derive(Debug)]
struct State<V> {
    entries: BTreeMap<u64, Entry<V>>,
    stats: MemoStats,
    /// LRU byte budget; `None` means unbounded.
    budget: Option<u64>,
    resident_bytes: u64,
    /// Monotonic probe clock driving the LRU order.
    tick: u64,
}

impl<V: Clone> State<V> {
    /// Serve a resident `key`, counting a hit and refreshing its LRU slot.
    fn touch(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&key)?;
        e.last_used = tick;
        self.stats.hits += 1;
        Some(e.value.clone())
    }

    /// Admit a computed value, counting a miss and evicting LRU entries
    /// past the budget. A concurrent admission that lost the race (the key
    /// is already resident) still counts the miss — it did compute — but
    /// keeps the incumbent entry, whose value is bit-identical under the
    /// determinism contract.
    fn admit(&mut self, key: u64, value: V, weight: u64) {
        self.stats.misses += 1;
        if self.entries.contains_key(&key) {
            return;
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                value,
                weight,
                last_used: self.tick,
            },
        );
        self.resident_bytes += weight;
        let Some(budget) = self.budget else { return };
        // The just-admitted entry holds the newest tick, so the LRU entry
        // is some other one while more than one is resident.
        while self.resident_bytes > budget && self.entries.len() > 1 {
            self.evict_lru();
        }
    }

    /// Evict the least-recently-used entry, if any.
    fn evict_lru(&mut self) {
        let Some((&k, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
            return;
        };
        let evicted = self.entries.remove(&k).expect("lru key came from this map");
        self.resident_bytes -= evicted.weight;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += evicted.weight;
    }
}

/// A fingerprint-keyed result cache gated by the static certificate,
/// probed through `&self`.
///
/// Locking is recovery-first — a panic while the lock was held poisons
/// the mutex, and every later probe claims the inner value anyway
/// (`PoisonError::into_inner`): the table's state is a plain map plus
/// counters, valid after any partial update, and serving a possibly-stale
/// LRU tick is strictly better than wedging the whole service.
#[derive(Debug)]
pub struct MemoTable<V> {
    state: Mutex<State<V>>,
}

impl<V: Clone> Default for MemoTable<V> {
    fn default() -> MemoTable<V> {
        MemoTable::new()
    }
}

impl<V: Clone> MemoTable<V> {
    /// An empty, unbounded table.
    pub fn new() -> MemoTable<V> {
        MemoTable {
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                stats: MemoStats::default(),
                budget: None,
                resident_bytes: 0,
                tick: 0,
            }),
        }
    }

    /// An empty table that evicts least-recently-used entries once the
    /// total admitted weight exceeds `budget_bytes`. The most recently
    /// admitted entry is never evicted, even when it alone exceeds the
    /// budget — a result that was just computed is always servable once.
    pub fn with_budget(budget_bytes: u64) -> MemoTable<V> {
        let table = MemoTable::new();
        table.lock().budget = Some(budget_bytes);
        table
    }

    fn lock(&self) -> MutexGuard<'_, State<V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serve `key` from the table, or run `compute` and (when `certified`)
    /// remember the result with the weight `weigh` gives it; returns the
    /// value and how the probe was served.
    ///
    /// `certified` is the verdict of [`crate::certify`] for the node that
    /// produced `key`. Uncertified probes never touch the table in either
    /// direction: the result is recomputed every time, and nothing is
    /// stored, so a later *certified* node whose fingerprint happens to
    /// equal `key` cannot observe an unsound value.
    ///
    /// `weigh` runs only on a miss, after `compute`, and should return the
    /// payload bytes the resident value pins (for zero-copy payloads: the
    /// bytes of the shared buffers the entry keeps alive); `|_| 0` admits
    /// an entry that never counts against the budget. `compute` and
    /// `weigh` run with the lock **released**, so one cold key never
    /// serializes the whole service behind its recompute. Two threads
    /// racing the same cold key may therefore both compute; both count as
    /// misses, the first admission wins residency, and the determinism
    /// contract makes the two values bit-identical.
    pub fn get_or_compute(
        &self,
        key: u64,
        certified: bool,
        compute: impl FnOnce() -> V,
        weigh: impl FnOnce(&V) -> u64,
    ) -> (V, Probe) {
        if !certified {
            self.lock().stats.bypasses += 1;
            return (compute(), Probe::Bypass);
        }
        if let Some(v) = self.lock().touch(key) {
            return (v, Probe::Hit);
        }
        let v = compute();
        let weight = weigh(&v);
        self.lock().admit(key, v.clone(), weight);
        (v, Probe::Miss)
    }

    /// Whether `key` is resident right now.
    pub fn contains(&self, key: u64) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Number of resident entries right now.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached right now.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> MemoStats {
        self.lock().stats
    }

    /// Total declared weight of the resident entries right now.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_bypass_accounting() {
        let t: MemoTable<u64> = MemoTable::new();
        let w = |_: &u64| 0;
        assert_eq!(t.get_or_compute(7, true, || 42, w).0, 42);
        assert_eq!(t.get_or_compute(7, true, || unreachable!(), w).0, 42);
        assert_eq!(t.get_or_compute(9, false, || 5, w).0, 5);
        assert_eq!(t.get_or_compute(9, false, || 6, w).0, 6); // recomputed
        assert!(!t.contains(9));
        assert_eq!(
            t.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                bypasses: 2,
                ..MemoStats::default()
            }
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn uncertified_probe_cannot_poison_a_certified_key() {
        let t: MemoTable<&'static str> = MemoTable::new();
        let w = |_: &&str| 0;
        assert_eq!(t.get_or_compute(1, false, || "unsound", w).0, "unsound");
        // The same fingerprint probed with a certificate sees a cold
        // table, not the unsound value.
        assert_eq!(t.get_or_compute(1, true, || "sound", w).0, "sound");
        assert_eq!(t.get_or_compute(1, true, || unreachable!(), w).0, "sound");
    }

    #[test]
    fn probe_outcomes_are_reported() {
        let t: MemoTable<u32> = MemoTable::new();
        let w = |_: &u32| 4;
        assert_eq!(t.get_or_compute(1, true, || 10, w).1, Probe::Miss);
        assert_eq!(t.get_or_compute(1, true, || 10, w).1, Probe::Hit);
        assert_eq!(t.get_or_compute(2, false, || 20, w).1, Probe::Bypass);
        assert_eq!(t.resident_bytes(), 4);
    }

    #[test]
    fn lru_budget_evicts_oldest_and_counts_stats() {
        // Budget of 10 bytes, entries of 4: the third admission must evict
        // the least-recently-used entry, which a preceding hit has moved
        // away from the insertion order.
        let t: MemoTable<u64> = MemoTable::with_budget(10);
        let w = |_: &u64| 4;
        t.get_or_compute(1, true, || 100, w);
        t.get_or_compute(2, true, || 200, w);
        t.get_or_compute(1, true, || unreachable!(), w); // refresh key 1
        t.get_or_compute(3, true, || 300, w);
        assert!(t.contains(1), "recently-touched entry survives");
        assert!(!t.contains(2), "LRU entry is evicted");
        assert!(t.contains(3));
        assert_eq!(t.resident_bytes(), 8);
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        assert_eq!((s.evictions, s.evicted_bytes), (1, 4));
        // The evicted key recomputes and re-admits: capacity, not soundness.
        assert_eq!(t.get_or_compute(2, true, || 201, w), (201, Probe::Miss));
    }

    #[test]
    fn oversized_entry_is_admitted_then_alone() {
        let t: MemoTable<u8> = MemoTable::with_budget(3);
        let w = |_: &u8| 2;
        t.get_or_compute(1, true, || 1, w);
        // 9 bytes > budget: everything else goes, the new entry stays.
        t.get_or_compute(2, true, || 2, |_| 9);
        assert!(!t.contains(1));
        assert!(t.contains(2));
        assert_eq!(t.resident_bytes(), 9);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn zero_weight_entries_never_trip_the_budget() {
        let t: MemoTable<u8> = MemoTable::with_budget(1);
        for k in 0..10 {
            t.get_or_compute(k, true, || k as u8, |_| 0);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.stats().evictions, 0);
    }

    #[test]
    fn shared_table_serves_hits_across_threads() {
        let t: MemoTable<u64> = MemoTable::new();
        let (v, p) = t.get_or_compute(5, true, || 55, |_| 8);
        assert_eq!((v, p), (55, Probe::Miss));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (v, p) = t.get_or_compute(5, true, || unreachable!(), |_| 8);
                    assert_eq!((v, p), (55, Probe::Hit));
                });
            }
        });
        let st = t.stats();
        assert_eq!((st.hits, st.misses, st.bypasses), (4, 1, 0));
        assert_eq!(t.resident_bytes(), 8);
    }

    #[test]
    fn shared_table_racing_cold_probes_agree() {
        // Every thread races the same cold key: each probe either hits or
        // computes the same deterministic value; residency is exactly one
        // entry and hits+misses covers all probes.
        let t: MemoTable<u64> = MemoTable::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (v, _) = t.get_or_compute(1, true, || 42, |_| 8);
                    assert_eq!(v, 42);
                });
            }
        });
        let st = t.stats();
        assert_eq!(st.hits + st.misses, 8);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resident_bytes(), 8);
    }

    #[test]
    fn shared_table_entry_larger_than_budget_is_admitted_alone() {
        // The just-computed entry is always servable once, even when its
        // weight alone exceeds the budget — everything older goes.
        let t: MemoTable<u64> = MemoTable::with_budget(16);
        t.get_or_compute(1, true, || 10, |_| 8);
        t.get_or_compute(2, true, || 20, |_| 8);
        t.get_or_compute(3, true, || 30, |_| 64);
        assert!(!t.contains(1));
        assert!(!t.contains(2));
        assert!(t.contains(3), "oversized entry stays resident");
        assert_eq!(t.resident_bytes(), 64);
        let s = t.stats();
        assert_eq!((s.evictions, s.evicted_bytes), (2, 16));
    }

    #[test]
    fn shared_table_exact_fit_never_evicts() {
        // resident == budget is within budget: eviction triggers strictly
        // past the boundary, so an exact fill keeps every entry.
        let t: MemoTable<u64> = MemoTable::with_budget(8);
        t.get_or_compute(1, true, || 10, |_| 4);
        t.get_or_compute(2, true, || 20, |_| 4);
        assert_eq!(t.resident_bytes(), 8);
        assert_eq!(t.stats().evictions, 0);
        // One more byte crosses the boundary and evicts exactly the LRU.
        t.get_or_compute(3, true, || 30, |_| 1);
        assert!(!t.contains(1), "oldest entry pays for the overflow");
        assert!(t.contains(2));
        assert!(t.contains(3));
        assert_eq!(t.resident_bytes(), 5);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn shared_table_repeated_hits_protect_an_old_entry() {
        // Key 1 is admitted first but hit repeatedly; the untouched key 2
        // is the true LRU when key 4 needs room, and eviction follows use
        // order, not insertion order.
        let t: MemoTable<u64> = MemoTable::with_budget(12);
        t.get_or_compute(1, true, || 10, |_| 4);
        t.get_or_compute(2, true, || 20, |_| 4);
        t.get_or_compute(3, true, || 30, |_| 4);
        for _ in 0..3 {
            let (v, p) = t.get_or_compute(1, true, || unreachable!(), |_| 4);
            assert_eq!((v, p), (10, Probe::Hit));
        }
        t.get_or_compute(4, true, || 40, |_| 4);
        assert!(t.contains(1), "repeatedly-hit entry survives");
        assert!(!t.contains(2), "least-recently-used entry is evicted");
        assert!(t.contains(3));
        assert!(t.contains(4));
        assert_eq!(t.resident_bytes(), 12);
    }

    #[test]
    fn shared_table_budget_accounting_survives_a_poisoned_lock() {
        // Recovery-first locking must leave the budget machinery working:
        // admissions after a poisoning panic still evict correctly.
        let t: MemoTable<u64> = MemoTable::with_budget(8);
        t.get_or_compute(1, true, || 10, |_| 4);
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = t.state.lock().unwrap();
                panic!("poison the table lock");
            })
            .join()
        });
        assert!(r.is_err(), "the poisoning thread panicked");
        t.get_or_compute(2, true, || 20, |_| 4);
        t.get_or_compute(3, true, || 30, |_| 4);
        assert!(!t.contains(1), "post-poison admission still evicts LRU");
        assert!(t.contains(2));
        assert!(t.contains(3));
        assert_eq!(t.resident_bytes(), 8);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn shared_table_survives_a_poisoned_lock() {
        let t: MemoTable<u64> = MemoTable::new();
        t.get_or_compute(1, true, || 10, |_| 0);
        // Poison the mutex: panic while holding the guard.
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = t.state.lock().unwrap();
                panic!("poison the table lock");
            })
            .join()
        });
        assert!(r.is_err(), "the poisoning thread panicked");
        // Probes keep working: recovery-first locking claims the state.
        assert_eq!(
            t.get_or_compute(1, true, || unreachable!(), |_| 0),
            (10, Probe::Hit)
        );
        assert_eq!(t.stats().hits, 1);
    }
}
