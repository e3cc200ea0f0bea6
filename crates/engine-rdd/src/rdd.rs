//! Lazy, partitioned, lineage-carrying collections.

use parexec::{CostHint, MorselPool, Parallelism};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::sync::Mutex;

/// The internal evaluation interface: an RDD knows its partition count and
/// how to compute any one partition.
trait RddImpl<T>: Send + Sync {
    fn num_partitions(&self) -> usize;
    fn compute(&self, partition: usize) -> Vec<T>;
}

/// A lazy, partitioned collection of records with lineage.
///
/// Narrow transformations (`map`, `flat_map`, `filter`) chain without
/// materialization; the wide one (`group_by_key`) introduces a shuffle
/// that materializes every parent partition first — a stage barrier,
/// exactly as in Spark.
///
/// Every RDD carries its job's task-slot count, set where
/// [`crate::SparkContext::parallelize`] created the job's input: each stage
/// runs its partition tasks on at most that many pool workers.
pub struct Rdd<T> {
    inner: Arc<dyn RddImpl<T>>,
    task_slots: usize,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            inner: Arc::clone(&self.inner),
            task_slots: self.task_slots,
        }
    }
}

struct Parallelized<T> {
    partitions: Vec<Vec<T>>,
}

impl<T: Clone + Send + Sync> RddImpl<T> for Parallelized<T> {
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn compute(&self, partition: usize) -> Vec<T> {
        // scilint: allow(C001, recompute-on-access semantics; element NdArrays clone as refcount bumps)
        self.partitions[partition].clone()
    }
}

struct MapRdd<T, U> {
    parent: Rdd<T>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Send + Sync + 'static, U: Send + Sync> RddImpl<U> for MapRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.inner.num_partitions()
    }
    fn compute(&self, partition: usize) -> Vec<U> {
        self.parent
            .inner
            .compute(partition)
            .into_iter()
            .map(|t| (self.f)(t))
            .collect()
    }
}

struct FlatMapRdd<T, U> {
    parent: Rdd<T>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
}

impl<T: Send + Sync + 'static, U: Send + Sync> RddImpl<U> for FlatMapRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.inner.num_partitions()
    }
    fn compute(&self, partition: usize) -> Vec<U> {
        self.parent
            .inner
            .compute(partition)
            .into_iter()
            .flat_map(|t| (self.f)(t))
            .collect()
    }
}

struct FilterRdd<T> {
    parent: Rdd<T>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Send + Sync + 'static> RddImpl<T> for FilterRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.inner.num_partitions()
    }
    fn compute(&self, partition: usize) -> Vec<T> {
        self.parent
            .inner
            .compute(partition)
            .into_iter()
            .filter(|t| (self.f)(t))
            .collect()
    }
}

fn bucket_of<K: Hash>(key: &K, buckets: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % buckets as u64) as usize
}

/// Materialized shuffle output: per-partition key groups.
type Buckets<K, V> = Arc<Vec<Vec<(K, Vec<V>)>>>;

/// A shuffle: hash-partitions parent records by key into `partitions`
/// buckets, materializing the entire parent on first access (the stage
/// barrier).
struct ShuffledRdd<K, V> {
    parent: Rdd<(K, V)>,
    partitions: usize,
    materialized: Mutex<Option<Buckets<K, V>>>,
}

impl<K, V> ShuffledRdd<K, V>
where
    K: Clone + Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    // scilint: allow(F001, poisoned cache lock means a worker already panicked; aborting the job is the engine contract)
    fn materialize(&self) -> Buckets<K, V> {
        let mut guard = self.materialized.lock().expect("shuffle lock poisoned");
        if let Some(m) = guard.as_ref() {
            return Arc::clone(m);
        }
        // Barrier: compute every parent partition on the job's slots (the
        // map side), then bucket by key hash in partition order. BTreeMap
        // keeps each bucket key-ordered, so shuffle output is deterministic
        // regardless of any hash seed or task schedule.
        let mut buckets: Vec<BTreeMap<K, Vec<V>>> =
            (0..self.partitions).map(|_| BTreeMap::new()).collect();
        for records in self.parent.run_tasks(|records| records) {
            for (k, v) in records {
                let b = bucket_of(&k, self.partitions);
                buckets[b].entry(k).or_default().push(v);
            }
        }
        let result: Buckets<K, V> = Arc::new(
            buckets
                .into_iter()
                .map(|m| m.into_iter().collect::<Vec<(K, Vec<V>)>>())
                .collect(),
        );
        *guard = Some(Arc::clone(&result));
        result
    }
}

impl<K, V> RddImpl<(K, Vec<V>)> for ShuffledRdd<K, V>
where
    K: Clone + Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn compute(&self, partition: usize) -> Vec<(K, Vec<V>)> {
        // scilint: allow(C001, shuffle output handoff; grouped values hold shared handles)
        self.materialize()[partition].clone()
    }
}

/// Caching layer: partitions are computed once and pinned.
struct CachedRdd<T> {
    parent: Rdd<T>,
    slots: Vec<Mutex<Option<Arc<Vec<T>>>>>,
}

impl<T: Clone + Send + Sync + 'static> RddImpl<T> for CachedRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.inner.num_partitions()
    }
    // scilint: allow(F001, poisoned cache lock means a worker already panicked; aborting the job is the engine contract)
    fn compute(&self, partition: usize) -> Vec<T> {
        let mut slot = self.slots[partition].lock().expect("cache lock poisoned");
        if let Some(v) = slot.as_ref() {
            // scilint: allow(C001, cache hit hands out the pinned partition; elements are shared handles)
            return v.as_ref().clone();
        }
        let v = Arc::new(self.parent.inner.compute(partition));
        *slot = Some(Arc::clone(&v));
        // scilint: allow(C001, first access fills the cache then hands out shared-handle elements)
        v.as_ref().clone()
    }
}

impl<T: Clone + Send + Sync + 'static> Rdd<T> {
    /// Build an RDD from explicit partitions whose job runs on `slots` task
    /// slots (used by `SparkContext`).
    pub(crate) fn from_partitions(partitions: Vec<Vec<T>>, slots: usize) -> Rdd<T> {
        Rdd {
            inner: Arc::new(Parallelized { partitions }),
            task_slots: slots,
        }
    }

    /// An RDD of the same job, computed by `inner`.
    fn derive<U>(&self, inner: Arc<dyn RddImpl<U>>) -> Rdd<U> {
        Rdd {
            inner,
            task_slots: self.task_slots,
        }
    }

    /// Number of partitions (schedulable tasks per stage).
    pub fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    /// Run one task per partition, `task` applied to the partition's
    /// records, on `min(partitions, slots)` pool workers; idle workers
    /// claim the next partition. Results come back in partition order
    /// whatever the schedule, and a task's panic reaches the caller with
    /// its own payload, mirroring Spark task failure.
    fn run_tasks<O: Send>(&self, task: impl Fn(Vec<T>) -> O + Sync) -> Vec<O> {
        let n = self.num_partitions();
        let workers = Parallelism::threads(n.min(self.task_slots).max(1));
        let one_partition_per_task = CostHint::uniform().with_max_items(1);
        MorselPool::with_hint(workers, one_partition_per_task)
            .map_ranges(n, |_, parts| {
                parts
                    .map(|p| task(self.inner.compute(p)))
                    .collect::<Vec<O>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Narrow transformation: apply `f` to each record.
    pub fn map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.derive(Arc::new(MapRdd {
            parent: self.clone(),
            f: Arc::new(f),
        }))
    }

    /// Narrow transformation: apply `f` producing zero or more records each.
    pub fn flat_map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.derive(Arc::new(FlatMapRdd {
            parent: self.clone(),
            f: Arc::new(f),
        }))
    }

    /// Narrow transformation: keep records satisfying `f`.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        self.derive(Arc::new(FilterRdd {
            parent: self.clone(),
            f: Arc::new(f),
        }))
    }

    /// Pin computed partitions in memory (Spark `.cache()`).
    pub fn cache(&self) -> Rdd<T> {
        let n = self.num_partitions();
        self.derive(Arc::new(CachedRdd {
            parent: self.clone(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }))
    }

    /// Action: materialize every partition on the job's task slots and
    /// concatenate in partition order. A task's panic reaches the caller
    /// with its own payload, mirroring Spark task failure.
    pub fn collect(&self) -> Vec<T> {
        self.run_tasks(|records| records)
            .into_iter()
            .flatten()
            .collect()
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Clone + Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Wide transformation: group records by key into `partitions` output
    /// partitions (a shuffle with a stage barrier).
    pub fn group_by_key(&self, partitions: usize) -> Rdd<(K, Vec<V>)> {
        self.derive(Arc::new(ShuffledRdd {
            parent: self.clone(),
            partitions: partitions.max(1),
            materialized: Mutex::new(None),
        }))
    }

    /// Action: collect into an ordered map (keys must be unique per record
    /// group). Ordered so downstream iteration is seed-independent.
    pub fn collect_as_map(&self) -> BTreeMap<K, V> {
        self.collect().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rdd_of(n: usize, parts: usize) -> Rdd<(usize, usize)> {
        let mut partitions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); parts];
        for i in 0..n {
            partitions[i % parts].push((i % 4, i));
        }
        Rdd::from_partitions(partitions, parts)
    }

    #[test]
    fn map_filter_collect() {
        let r = rdd_of(20, 4);
        let out = r
            .map(|(k, v)| (k, v * 2))
            .filter(|&(_, v)| v >= 20)
            .collect();
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&(_, v)| v % 2 == 0 && v >= 20));
    }

    #[test]
    fn flat_map_expands() {
        let r = rdd_of(5, 2);
        let out = r.flat_map(|(k, v)| vec![(k, v), (k, v + 100)]).collect();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let r = rdd_of(40, 5);
        let grouped = r.group_by_key(3);
        assert_eq!(grouped.num_partitions(), 3);
        let out = grouped.collect();
        assert_eq!(out.len(), 4, "four distinct keys");
        let total: usize = out.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let r = rdd_of(40, 5);
        let grouped = r.group_by_key(4);
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for p in 0..4 {
            for (k, _) in grouped.inner.compute(p) {
                assert!(seen.insert(k, p).is_none(), "key {k} in two partitions");
            }
        }
    }

    #[test]
    fn lazy_until_action() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let r = rdd_of(10, 2).map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no work before the action");
        r.collect();
        assert_eq!(calls.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn cache_computes_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let cached = rdd_of(10, 2)
            .map(move |x| {
                c.fetch_add(1, Ordering::SeqCst);
                x
            })
            .cache();
        cached.collect();
        cached.collect();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            10,
            "second collect served from cache"
        );
    }

    #[test]
    fn uncached_recomputes_lineage() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let r = rdd_of(10, 2).map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        });
        r.collect();
        r.collect();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            20,
            "lineage recomputed without cache"
        );
    }

    #[test]
    #[should_panic(expected = "spark udf failed on 5")]
    fn task_panic_reaches_the_caller_with_its_message() {
        rdd_of(8, 4)
            .map(|(k, v)| {
                assert!(v != 5, "spark udf failed on {v}");
                (k, v)
            })
            .collect();
    }
}
