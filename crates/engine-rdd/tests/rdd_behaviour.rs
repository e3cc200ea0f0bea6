//! Behavioural tests of the RDD engine beyond the unit level: shuffle
//! determinism, lineage semantics, realistic image-record pipelines.

use engine_rdd::{SparkContext, DEFAULT_BLOCK_BYTES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn shuffle_is_deterministic_across_runs() {
    let build = || {
        let sc = SparkContext::new();
        sc.parallelize((0..200).map(|i| (i % 7, i)).collect::<Vec<_>>(), 5)
            .group_by_key(3)
            .map(|(k, vs)| (k, vs.iter().sum::<i32>()))
            .collect()
    };
    assert_eq!(build(), build());
}

#[test]
fn flat_map_can_drop_and_multiply() {
    let sc = SparkContext::new();
    let r = sc
        .parallelize((0..10).collect::<Vec<i32>>(), 3)
        .flat_map(|x| {
            if x % 2 == 0 {
                vec![]
            } else {
                vec![x; x as usize]
            }
        });
    let out = r.collect();
    let expected: usize = (0..10).filter(|x| x % 2 == 1).map(|x| x as usize).sum();
    assert_eq!(out.len(), expected);
}

#[test]
fn chained_shuffles_compose() {
    let sc = SparkContext::new();
    let out = sc
        .parallelize(
            (0..120).map(|i| ((i % 4, i % 3), 1u32)).collect::<Vec<_>>(),
            6,
        )
        .reduce_by_key(4, |a, b| a + b) // per (i%4, i%3) pair: 10 each
        .map(|((a, _), n)| (a, n))
        .reduce_by_key(2, |a, b| a + b) // per i%4: 30 each
        .collect_as_map();
    assert_eq!(out.len(), 4);
    assert!(out.values().all(|&v| v == 30));
}

#[test]
fn cache_interacts_with_branches() {
    // Two downstream branches off a cached RDD compute the parent once —
    // the §5.3.3 caching scenario in miniature.
    let calls = Arc::new(AtomicUsize::new(0));
    let sc = SparkContext::new();
    let c = Arc::clone(&calls);
    let base = sc
        .parallelize((0..16).collect::<Vec<u32>>(), 4)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        })
        .cache();
    let branch_a = base.map(|x| x * 2).collect();
    let branch_b = base.filter(|&x| x > 7).collect();
    assert_eq!(branch_a.len(), 16);
    assert_eq!(branch_b.len(), 8);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        16,
        "parent computed once, not twice"
    );
}

#[test]
fn uncached_branches_recompute_like_the_paper_says() {
    let calls = Arc::new(AtomicUsize::new(0));
    let sc = SparkContext::new();
    let c = Arc::clone(&calls);
    let base = sc
        .parallelize((0..16).collect::<Vec<u32>>(), 4)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        });
    base.map(|x| x * 2).collect();
    base.filter(|&x| x > 7).collect();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        32,
        "branch re-executes the lineage"
    );
}

#[test]
fn broadcast_replaces_join_pattern() {
    // The paper's mask-as-broadcast idiom: key the small side by subject
    // and read it from every closure without a shuffle.
    let sc = SparkContext::new();
    let masks: HashMap<u32, f64> = (0..4).map(|s| (s, (s + 1) as f64)).collect();
    let bc = sc.broadcast(masks);
    let records: Vec<(u32, f64)> = (0..40).map(|i| (i % 4, i as f64)).collect();
    let b = bc.clone();
    let out = sc
        .parallelize(records, 8)
        .map(move |(s, v)| (s, v * b.value()[&s]))
        .collect();
    assert_eq!(out.len(), 40);
    for (s, v) in out {
        assert_eq!(v % (s + 1) as f64, 0.0);
    }
}

#[test]
fn default_partition_rule_matches_block_math() {
    let sc = SparkContext::new();
    assert_eq!(sc.default_partitions(0), 1);
    assert_eq!(sc.default_partitions(DEFAULT_BLOCK_BYTES), 1);
    assert_eq!(sc.default_partitions(DEFAULT_BLOCK_BYTES + 1), 2);
    assert_eq!(sc.default_partitions(10 * DEFAULT_BLOCK_BYTES), 10);
}

#[test]
fn group_by_key_handles_skewed_keys() {
    // One hot key with 90% of the records (astro patch skew in miniature).
    let sc = SparkContext::new();
    let mut records: Vec<(u8, u32)> = (0..900).map(|i| (0u8, i)).collect();
    records.extend((0..100).map(|i| ((1 + (i % 5)) as u8, i)));
    let grouped = sc.parallelize(records, 10).group_by_key(4).collect();
    let hot = grouped
        .iter()
        .find(|(k, _)| *k == 0)
        .expect("hot key present");
    assert_eq!(hot.1.len(), 900);
    let total: usize = grouped.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, 1000);
}

#[test]
fn join_matches_broadcast_result() {
    // The join-vs-broadcast trade-off from the paper: same answer either way.
    let sc = SparkContext::new();
    let images: Vec<(u32, f64)> = (0..24).map(|i| (i % 4, i as f64)).collect();
    let masks: Vec<(u32, f64)> = (0..4).map(|s| (s, (s + 1) as f64)).collect();

    let via_join = sc
        .parallelize(images.clone(), 6)
        .join(&sc.parallelize(masks.clone(), 2), 4)
        .map(|(s, (v, m))| (s, v * m))
        .collect();

    let mask_map: HashMap<u32, f64> = masks.into_iter().collect();
    let bc = sc.broadcast(mask_map);
    let b = bc.clone();
    let via_broadcast = sc
        .parallelize(images, 6)
        .map(move |(s, v)| (s, v * b.value()[&s]))
        .collect();

    let norm = |mut v: Vec<(u32, f64)>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    };
    assert_eq!(norm(via_join), norm(via_broadcast));
}

#[test]
fn join_is_inner() {
    let sc = SparkContext::new();
    let left = sc.parallelize(vec![(1u32, "a"), (2, "b"), (3, "c")], 2);
    let right = sc.parallelize(vec![(2u32, 20), (3, 30), (4, 40)], 2);
    let out = left.join(&right, 3).collect();
    assert_eq!(out.len(), 2, "keys 2 and 3 only");
    assert!(out.iter().all(|(k, _)| *k == 2 || *k == 3));
}

#[test]
fn join_produces_cross_product_per_key() {
    let sc = SparkContext::new();
    let left = sc.parallelize(vec![(0u8, 1), (0, 2)], 2);
    let right = sc.parallelize(vec![(0u8, 10), (0, 20), (0, 30)], 2);
    let out = left.join(&right, 2).collect();
    assert_eq!(out.len(), 6);
}

#[test]
fn stages_run_on_the_jobs_task_slots() {
    // A job parallelized into two slices runs every stage on two task
    // slots: the shuffle's map side over the two slices, and the 64 tasks
    // after the shuffle, however many partitions a stage has.
    let running = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let task = {
        let (running, most) = (Arc::clone(&running), Arc::clone(&most));
        move |x: u32| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            running.fetch_sub(1, Ordering::SeqCst);
            x
        }
    };
    let map_side = task.clone();
    let sc = SparkContext::new();
    let groups = sc
        .parallelize((0..256u32).collect::<Vec<_>>(), 2)
        .map(move |i| (map_side(i) % 128, i))
        .group_by_key(64)
        .map(move |(k, vs)| (task(k), vs.len()))
        .collect();
    assert_eq!(groups.len(), 128);
    assert_eq!(groups.iter().map(|(_, n)| n).sum::<usize>(), 256);
    let most = most.load(Ordering::SeqCst);
    assert!(most <= 2, "{most} tasks ran at once on a two-slot job");
}
