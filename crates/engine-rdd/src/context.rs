//! The driver-side entry point.

use crate::broadcast::Broadcast;
use crate::rdd::Rdd;

/// Default storage block size: with no explicit partition count, Spark
/// creates one partition per 128 MB block — the paper's observation that
/// "if the number of data partitions is unspecified, Spark creates a
/// partition for each HDFS block, which typically leads to a small number
/// of large partitions". The analog always takes an explicit count; the
/// lowering and the partition autotuner apply this default.
pub const DEFAULT_BLOCK_BYTES: u64 = 128 * 1024 * 1024;

/// The cluster connection / driver context.
#[derive(Debug, Clone, Default)]
pub struct SparkContext;

impl SparkContext {
    /// Connect to the cluster. Each action runs one task per partition, on
    /// the task slots of the job it belongs to (see
    /// [`SparkContext::parallelize`]).
    pub fn new() -> SparkContext {
        SparkContext
    }

    /// Distribute a local collection into `num_partitions` partitions
    /// (round-robin, like Spark's `parallelize` slicing). The slice count
    /// is also the job's task-slot count: every RDD derived from the
    /// result runs each stage's partition tasks on at most
    /// `num_partitions` pool workers, however many partitions a later
    /// shuffle creates.
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        items: Vec<T>,
        num_partitions: usize,
    ) -> Rdd<T> {
        let p = num_partitions.max(1);
        let mut partitions: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            partitions[i % p].push(item);
        }
        Rdd::from_partitions(partitions, p)
    }

    /// Replicate a read-only value to all workers.
    pub fn broadcast<T>(&self, value: T) -> Broadcast<T> {
        Broadcast::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_round_robins() {
        let sc = SparkContext::new();
        let r = sc.parallelize((0..10).collect(), 3);
        assert_eq!(r.num_partitions(), 3);
        assert_eq!(r.collect().len(), 10);
    }

    #[test]
    fn broadcast_usable_in_closures() {
        let sc = SparkContext::new();
        let factor = sc.broadcast(10usize);
        let r = sc.parallelize(vec![1usize, 2, 3], 2);
        let f = factor.clone();
        let out = r.map(move |x| x * *f.value()).collect();
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 20, 30]);
    }
}
